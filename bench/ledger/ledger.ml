(* ledger.exe — the layered benchmark ledger. See README.md.

     ledger.exe [run] [--workload W]... [--seed N] [--reps R | --seconds S]
                [--trace 0|1] [--quick] [--out FILE] [--spans DIR]
     ledger.exe compare BASE CHANGE
     ledger.exe manifest
     ledger.exe child --workload W --seed N --scale X [--traced] [--spans F]

   [run] without [--trace] measures every named workload [--reps]
   times (default 5) and makes one traced run per workload. With
   [--trace 0] or [--trace 1] it measures one workload for [--seconds]
   (or [--reps]) and reports its end-to-end (0) or per-layer (1)
   metrics. The last line of standard output is always one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

open Softstate_ledger

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

type opts = {
  workloads : string list;
  seed : int;
  reps : int option;
  seconds : float option;
  trace : int option;
  quick : bool;
  out : string option;
  spans : string option;
  scale : float option;
  traced : bool;
}

let parse args =
  let int_of flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer" flag
  in
  let float_of flag v =
    match float_of_string_opt v with Some x -> x | None -> die "%s wants a number" flag
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--reps" :: v :: rest -> go { o with reps = Some (int_of "--reps" v) } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = Some (float_of "--seconds" v) } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" | "1" -> go { o with trace = Some (int_of "--trace" v) } rest
        | _ -> die "--trace wants 0 or 1")
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--out" :: p :: rest -> go { o with out = Some p } rest
    | "--spans" :: p :: rest -> go { o with spans = Some p } rest
    | "--scale" :: v :: rest -> go { o with scale = Some (float_of "--scale" v) } rest
    | "--traced" :: rest -> go { o with traced = true } rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go
    { workloads = []; seed = 1; reps = None; seconds = None; trace = None;
      quick = false; out = None; spans = None; scale = None; traced = false }
    args

let check_workload w =
  if Spec.find_workload w = None then
    die "unknown workload %S (known: %s)" w
      (String.concat ", " (List.map (fun w -> w.Spec.w_name) Spec.workloads))

let child o =
  let name = match o.workloads with [ w ] -> w | _ -> die "child wants one --workload" in
  check_workload name;
  let scale = Option.value o.scale ~default:1.0 in
  print_endline
    (if o.traced then Runner.child_traced name ~seed:o.seed ~scale ~spans:o.spans
     else Runner.child_plain name ~seed:o.seed ~scale)

let finish ~correct ~attempted ~failed metrics =
  print_endline (Runner.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

let spans_file o name =
  Option.map
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Filename.concat dir ("spans-" ^ name ^ ".tsv"))
    o.spans

let median_wall set = Summary.median (Runner.samples set "wall_s")

(* One workload, end-to-end metrics only, time-boxed. *)
let run_end_to_end o ~scale name =
  let set =
    Runner.measure ?reps:o.reps
      ?seconds:(if o.reps = None then o.seconds else None)
      ~scale name ~seed:o.seed
  in
  Runner.print_set_table [ set ];
  Option.iter (fun p -> Runner.append_set p set) o.out;
  let attempted = List.length set.reps in
  let failed = attempted - List.length (Runner.ok_reps set) in
  finish ~correct:(failed = 0) ~attempted ~failed
    (List.map
       (fun (m : Spec.metric) ->
         (m.name, m.unit_, Summary.median (Runner.samples set m.name)))
       Spec.end_to_end)

(* One workload, per-layer metrics: untraced and traced runs in
   alternation, each traced run checked against its untraced twin. *)
let run_layers o ~scale name =
  let set, layers =
    Runner.measure_layers ?reps:o.reps
      ?seconds:(if o.reps = None then o.seconds else None)
      ~scale ~spans:(spans_file o name) name ~seed:o.seed
  in
  Runner.print_layers name layers;
  let attempted = List.length set.reps in
  let failed = attempted - List.length (Runner.ok_reps set) in
  finish ~correct:(failed = 0) ~attempted ~failed
    (List.map (fun ((m : Spec.metric), v) -> (m.name, m.unit_, v)) layers)

(* The full ledger: every workload [reps] times, then one traced run
   each, checked against the first untraced run. *)
let run_all o ~scale names =
  let reps = Option.value o.reps ~default:(if o.quick then 2 else 5) in
  let results =
    List.map
      (fun name ->
        let set = Runner.measure ~reps ~scale name ~seed:o.seed in
        Option.iter (fun p -> Runner.append_set p set) o.out;
        let reference =
          match Runner.ok_reps set with r :: _ -> r | [] -> List.hd set.reps
        in
        let traced =
          Runner.traced_run ~scale ~spans:(spans_file o name)
            ~timeout_s:(Float.max 30.0 (6.0 *. reference.elapsed_s))
            name ~seed:o.seed ~untraced:reference
        in
        let layers =
          Runner.layers ~traced:[ traced ] ~untraced_wall:(median_wall set)
        in
        (set, traced, layers))
      names
  in
  print_newline ();
  Runner.print_set_table (List.map (fun (s, _, _) -> s) results);
  List.iter (fun (s, _, layers) -> Runner.print_layers s.Runner.workload layers) results;
  let runs = List.concat_map (fun (s, t, _) -> t :: s.Runner.reps) results in
  let failed = List.length (List.filter (fun r -> not r.Runner.ok) runs) in
  print_newline ();
  finish ~correct:(failed = 0) ~attempted:(List.length runs) ~failed
    (List.concat_map
       (fun (set, _, _) ->
         List.map
           (fun (m : Spec.metric) ->
             ( set.Runner.workload ^ "/" ^ m.name,
               m.unit_,
               Summary.median (Runner.samples set m.name) ))
           Spec.end_to_end)
       results)

let run o =
  let scale = if o.quick then 0.1 else 1.0 in
  let names =
    if o.workloads = [] then List.map (fun w -> w.Spec.w_name) Spec.workloads
    else o.workloads
  in
  List.iter check_workload names;
  match (o.trace, names) with
  | None, _ -> run_all o ~scale names
  | Some 0, [ name ] -> run_end_to_end o ~scale name
  | Some _, [ name ] -> run_layers o ~scale name
  | Some _, _ -> die "--trace measures exactly one --workload"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args -> child (parse args)
  | [ "compare"; base; change ] ->
      exit (if Runner.compare_sets base change > 0 then 1 else 0)
  | [ "manifest" ] -> print_string (Spec.manifest ())
  | "run" :: args -> run (parse args)
  | args -> run (parse args)
