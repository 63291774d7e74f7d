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

let replay engine t ~put ~remove =
  check t;
  List.iter
    (fun e ->
      Engine.schedule_at engine ~time:e.time (fun _ ->
          match e.op with
          | Put { path; payload } -> put ~path ~payload
          | Remove { path } -> remove ~path))
    t
