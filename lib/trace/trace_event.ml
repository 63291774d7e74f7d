module Engine = Softstate_sim.Engine

type op =
  | Put of { path : string; payload : string }
  | Remove of { path : string }

type event = { time : float; op : op }
type t = event list

let check t =
  let rec walk last = function
    | [] -> ()
    | e :: rest ->
        if e.time < last then invalid_arg "Trace_event.check: time reversed";
        walk e.time rest
  in
  walk neg_infinity t

let length = List.length

let duration = function
  | [] -> 0.0
  | t -> (List.nth t (List.length t - 1)).time

let merge a b =
  let rec go a b =
    match a, b with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys ->
        if x.time <= y.time then x :: go xs b else y :: go a ys
  in
  go a b

let replay engine t ~put ~remove =
  check t;
  List.iter
    (fun e ->
      Engine.schedule_at engine ~time:e.time (fun _ ->
          match e.op with
          | Put { path; payload } -> put ~path ~payload
          | Remove { path } -> remove ~path))
    t
