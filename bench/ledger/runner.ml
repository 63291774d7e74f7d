(* Runs and reports ledger measurements.

   Every measured run happens in a fresh child process (this same
   executable, [child] subcommand), one at a time, on one domain. The
   child prints one flat JSON line; the parent times it out, checks it,
   and aggregates medians and quartiles. *)

module Json = Softstate_obs.Json

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1_048_576.0

(* ------------------------------------------------------------------ *)
(* Child side *)

let band_check name ~scale c =
  match Spec.find_workload name with
  | Some w when Float.equal scale 1.0 ->
      let lo, hi = w.Spec.band in
      (Printf.sprintf "consistency in [%g, %g]" lo hi, c >= lo && c <= hi)
  | _ -> ("consistency in (0, 1]", c > 0.0 && c <= 1.0)

let failed_checks checks =
  String.concat "; "
    (List.filter_map (fun (what, ok) -> if ok then None else Some what) checks)

let common_fields name ~seed ~scale (o : Workloads.outcome) ~wall_ns ~setup_ns
    extra_checks =
  let checks = (band_check name ~scale o.consistency :: o.checks) @ extra_checks in
  [ ("workload", Json.string name);
    ("seed", Json.int seed);
    ("scale", Json.float scale);
    ("wall_s", Json.float (Clock.seconds wall_ns));
    ("setup_s", Json.float (Clock.seconds setup_ns));
    ("sim_s", Json.float o.sim_s);
    ("packets", Json.int o.packets);
    ("consistency", Json.float o.consistency);
    ("failed_checks", Json.string (failed_checks checks));
    ("digest", Json.string (Workloads.digest o)) ]
  @ List.map (fun (k, v) -> ("result." ^ k, Json.string v)) o.fields

(* One untraced run, then the set-up alone several times (median). The
   peak heap is read after the run, before the set-up repetitions. *)
let child_plain name ~seed ~scale =
  let t0 = Clock.now_ns () in
  let o = Workloads.run name ~seed ~scale in
  let wall_ns = Clock.now_ns () - t0 in
  let peak = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  let reps, once = Workloads.setup name ~seed ~scale in
  let setups =
    List.init reps (fun _ ->
        let a = Clock.now_ns () in
        once ();
        float_of_int (Clock.now_ns () - a))
  in
  let setup_ns = int_of_float (Summary.median setups) in
  Json.obj
    (common_fields name ~seed ~scale o ~wall_ns ~setup_ns []
    @ [ ("peak_heap_mb", Json.float peak) ])

let layer_values name (sp : Span.t) (o : Workloads.outcome) ~high_water
    ~wall_ns ~setup_ns ~span_cost =
  let tbl = Hashtbl.create 64 in
  let set k v = Hashtbl.replace tbl k v in
  let per a b = if b = 0 then 0.0 else a /. float_of_int b in
  let steps = Span.steps sp and loop_ns = Span.loop_ns sp in
  let loop_s = Clock.seconds loop_ns in
  Array.iteri
    (fun k kind ->
      let calls = Span.calls sp k in
      set (kind ^ ".calls") (float_of_int calls);
      set (kind ^ ".ns_per_call") (per (float_of_int (Span.self_ns sp k)) calls);
      set (kind ^ ".words_per_call") (per (Span.self_words sp k) calls);
      set (kind ^ ".hit_ratio") (per (float_of_int (Span.hits sp k)) calls);
      set (kind ^ ".accept_ratio") (per (float_of_int (Span.hits sp k)) calls))
    Workloads.span_names;
  set "sim.events" (float_of_int steps);
  set "sim.events_per_s" (float_of_int steps /. loop_s);
  set "sim.calendar_high_water" (float_of_int high_water);
  set "sim.step_p50_ns" (Span.step_quantile sp 0.5);
  set "sim.step_p99_ns" (Span.step_quantile sp 0.99);
  set "sim.step_max_ns" (float_of_int (Span.step_max_ns sp));
  set "loop.residual_ns_per_event" (per (float_of_int (Span.residual_ns sp)) steps);
  set "loop.residual_share"
    (float_of_int (Span.residual_ns sp) /. float_of_int loop_ns);
  set "loop.coverage" (float_of_int loop_ns /. float_of_int (wall_ns - setup_ns));
  set "gc.minor_words_per_event" (per (Span.loop_words sp) steps);
  set "gc.major_collections" (float_of_int (Span.loop_major sp));
  set "trace.span_cost_ns" span_cost;
  List.iter (fun (k, v) -> set k v) o.counts;
  if name = "gossip-flat" then begin
    set "gossip.round_p50_ms" (Span.step_quantile sp 0.5 /. 1e6);
    set "gossip.round_max_ms" (float_of_int (Span.step_max_ns sp) /. 1e6);
    set "gossip.contacts_per_s" (float_of_int o.packets /. loop_s)
  end;
  List.map
    (fun (m : Spec.metric) ->
      (m.name, Option.value (Hashtbl.find_opt tbl m.name) ~default:0.0))
    Spec.per_layer

(* One traced run: calibrate the span, run with spans on, and report
   every per-layer metric plus the attribution checks. *)
let child_traced name ~seed ~scale ~spans =
  let span_cost, span_words = Span.calibrate ~clock:Clock.now_ns () in
  let sp = Span.create ~clock:Clock.now_ns Workloads.span_names in
  let t0 = Clock.now_ns () in
  let o, high_water = Workloads.run_traced sp name ~seed ~scale in
  let wall_ns = Clock.now_ns () - t0 in
  let setup_ns = sp.Span.loop_start - t0 in
  let layers = layer_values name sp o ~high_water ~wall_ns ~setup_ns ~span_cost in
  let coverage = List.assoc "loop.coverage" layers in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Span.dump sp oc ~run:(Printf.sprintf "%s:%d" name seed);
      close_out oc)
    spans;
  let checks =
    [ ("span self time + residual = loop time", Span.identity_holds sp);
      ("loop time within 2% of wall - setup", coverage >= 0.98 && coverage <= 1.0);
      ("zero heap words per span", Float.equal span_words 0.0) ]
  in
  Json.obj
    (common_fields name ~seed ~scale o ~wall_ns ~setup_ns checks
    @ List.map (fun (k, v) -> ("layer." ^ k, Json.float v)) layers)

(* ------------------------------------------------------------------ *)
(* Parent side: one child at a time *)

type rep = {
  traced : bool;
  ok : bool;
  reason : string;
  values : (string * Json.value) list;
  elapsed_s : float;
}

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run this executable with [args]; kill it past [timeout_s]. Returns
   the exit status (None on timeout), its standard output and the
   elapsed seconds. *)
let spawn args ~timeout_s =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let deadline = t0 + int_of_float (timeout_s *. 1e9) in
  let rec read () =
    let left = Clock.seconds (deadline - Clock.now_ns ()) in
    if left <= 0.0 then false
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> read ()
      | _ ->
          let n = Unix.read r chunk 0 (Bytes.length chunk) in
          if n = 0 then true
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            read ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close r;
  let status = waitpid_retry pid in
  let elapsed = Clock.seconds (Clock.now_ns () - t0) in
  ((if finished then Some status else None), Buffer.contents buf, elapsed)

let last_line s =
  match
    List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))
  with
  | l :: _ -> l
  | [] -> ""

let child_args name ~seed ~scale ~traced ~spans =
  [ "child"; "--workload"; name; "--seed"; string_of_int seed; "--scale";
    Printf.sprintf "%h" scale ]
  @ (if traced then [ "--traced" ] else [])
  @ match spans with Some p -> [ "--spans"; p ] | None -> []

let run_child name ~seed ~scale ~traced ~spans ~timeout_s =
  let status, out, elapsed_s =
    spawn (child_args name ~seed ~scale ~traced ~spans) ~timeout_s
  in
  let fail reason = { traced; ok = false; reason; values = []; elapsed_s } in
  match status with
  | None -> fail (Printf.sprintf "timed out after %.1f s" timeout_s)
  | Some (Unix.WEXITED 0) -> (
      match Json.parse_flat (last_line out) with
      | Error e -> fail ("unreadable child output: " ^ e)
      | Ok values -> (
          match Json.member "failed_checks" values with
          | Some (Json.String "") ->
              { traced; ok = true; reason = ""; values; elapsed_s }
          | Some (Json.String what) -> { (fail ("check failed: " ^ what)) with values }
          | _ -> fail "child output lacks failed_checks"))
  | Some (Unix.WEXITED n) -> fail (Printf.sprintf "child exited with %d" n)
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      fail (Printf.sprintf "child killed by signal %d" n)

let number values key =
  match Json.member key values with Some (Json.Number x) -> x | _ -> nan

let text values key =
  match Json.member key values with Some (Json.String s) -> s | _ -> ""

(* End-to-end samples of one run. *)
let end_to_end values =
  let wall = number values "wall_s" and setup = number values "setup_s" in
  let loop = wall -. setup in
  [ ("setup_s", setup);
    ("wall_s", wall);
    ("sim_s_per_wall_s", number values "sim_s" /. loop);
    ("packets_per_s", number values "packets" /. loop);
    ("peak_heap_mb", number values "peak_heap_mb");
    ("consistency", number values "consistency") ]

(* The first result field on which two runs differ, if any. *)
let first_difference a b =
  let fields v =
    List.filter
      (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "result.")
      v
  in
  let fa = fields a and fb = fields b in
  if List.length fa <> List.length fb then Some "number of result fields"
  else
    List.find_map
      (fun ((k, x), (k', y)) ->
        if k <> k' || x <> y then Some k else None)
      (List.combine fa fb)

type set = {
  workload : string;
  seed : int;
  reps : rep list;        (* in run order; failed runs included *)
}

let ok_reps set = List.filter (fun r -> r.ok) set.reps

(* A time-boxed invocation starts no run it expects to end past this,
   so the whole invocation ends within three minutes. *)
let time_box_s = 150.0

(* Calls [f i ~timeout_s] for i = 0, 1, ... and collects the runs each
   call returns: [reps] calls, or as many as are expected to end within
   [seconds] (at least [at_least], time box permitting). A call's
   timeout is three times the median successful call so far (5 s
   floor; 120 s before any call succeeded). *)
let repeat ?reps ?seconds ~at_least f =
  let start = Clock.now_ns () in
  let elapsed () = Clock.seconds (Clock.now_ns () - start) in
  let rec loop acc n =
    let done_ = List.filter (List.for_all (fun r -> r.ok)) acc in
    let typical =
      Summary.median
        (List.map
           (fun runs -> List.fold_left (fun t r -> t +. r.elapsed_s) 0.0 runs)
           done_)
    in
    let expected_end = elapsed () +. if done_ = [] then 0.0 else typical in
    let more =
      match (reps, seconds) with
      | Some r, _ -> n < r
      | None, Some s ->
          (n < at_least && expected_end <= time_box_s)
          || (done_ <> [] && expected_end <= s)
      | None, None -> n < at_least
    in
    if not more then List.concat (List.rev acc)
    else begin
      let timeout_s =
        if done_ = [] then 120.0 else Float.max 5.0 (3.0 *. typical)
      in
      loop (f n ~timeout_s :: acc) (n + 1)
    end
  in
  loop [] 0

(* Every run of one seed must give the same result: runs whose digest
   differs from the majority's fail. *)
let agree runs =
  let digests =
    List.filter_map
      (fun r -> if r.ok then Some (text r.values "digest") else None)
      runs
  in
  let count d = List.length (List.filter (String.equal d) digests) in
  let majority =
    List.fold_left
      (fun best d -> if count d > count best then d else best)
      (match digests with d :: _ -> d | [] -> "")
      digests
  in
  List.map
    (fun r ->
      if r.ok && text r.values "digest" <> majority then
        { r with ok = false;
          reason = "result differs from the other runs of this seed" }
      else r)
    runs

let report name r =
  if not r.ok then
    prerr_endline
      (Printf.sprintf "%s%s: %s" name (if r.traced then " (traced)" else "")
         r.reason);
  r

(* Untraced runs of one workload, one at a time (see [repeat]; at least
   3 when time-boxed). *)
let measure ?reps ?seconds ~scale name ~seed =
  let runs =
    repeat ?reps ?seconds ~at_least:3 (fun _ ~timeout_s ->
        [ report name
            (run_child name ~seed ~scale ~traced:false ~spans:None ~timeout_s) ])
  in
  { workload = name; seed; reps = agree runs }

(* End-to-end samples of a set: its successful untraced runs. *)
let samples set metric =
  List.filter_map
    (fun r ->
      if r.ok && not r.traced then Some (List.assoc metric (end_to_end r.values))
      else None)
    set.reps

(* A traced run, checked field for field against an untraced run of the
   same seed. *)
let traced_run ~scale ~spans ~timeout_s name ~seed ~untraced =
  let r = run_child name ~seed ~scale ~traced:true ~spans ~timeout_s in
  report name
    (if not (r.ok && untraced.ok) then r
     else
       match first_difference untraced.values r.values with
       | None -> r
       | Some field ->
           { r with ok = false;
             reason = "traced result differs from untraced in " ^ field })

(* Per-layer values: medians over the traced runs, and the tracing
   overhead as traced over untraced median wall time, less one. *)
let layers ~traced ~untraced_wall =
  let ok = List.filter (fun r -> r.ok) traced in
  let median key = Summary.median (List.map (fun r -> number r.values key) ok) in
  List.map
    (fun (m : Spec.metric) ->
      ( m,
        if m.name = "trace.overhead_share" then
          (median "wall_s" /. untraced_wall) -. 1.0
        else median ("layer." ^ m.name) ))
    Spec.per_layer

(* Untraced and traced runs in alternation (see [repeat]; at least one
   pair); the first traced run writes the span dump. *)
let measure_layers ?reps ?seconds ~scale ~spans name ~seed =
  let runs =
    repeat ?reps ?seconds ~at_least:1 (fun i ~timeout_s ->
        let untraced =
          report name
            (run_child name ~seed ~scale ~traced:false ~spans:None ~timeout_s)
        in
        let spans = if i = 0 then spans else None in
        [ untraced; traced_run ~scale ~spans ~timeout_s name ~seed ~untraced ])
  in
  let runs = agree runs in
  let plain = List.filter (fun r -> r.ok && not r.traced) runs in
  let untraced_wall =
    Summary.median (List.map (fun r -> number r.values "wall_s") plain)
  in
  ( { workload = name; seed; reps = runs },
    layers ~traced:(List.filter (fun r -> r.traced) runs) ~untraced_wall )

(* ------------------------------------------------------------------ *)
(* Output *)

let result_line ~correct ~attempted ~failed metrics =
  Json.obj
    [ ("correct", Json.bool correct);
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, unit_, value) ->
               ( name,
                 Json.obj
                   [ ("value", Json.float (if Float.is_nan value then 0.0 else value));
                     ("unit", Json.string unit_) ] ))
             metrics) ) ]

let print_set_table sets =
  Printf.printf "%-17s %-17s %-9s %14s %14s %14s %4s\n" "workload" "metric"
    "unit" "median" "q1" "q3" "n";
  List.iter
    (fun set ->
      List.iter
        (fun (m : Spec.metric) ->
          let xs = samples set m.name in
          let q1, q2, q3 = Summary.quartiles xs in
          Printf.printf "%-17s %-17s %-9s %14.6g %14.6g %14.6g %4d\n"
            set.workload m.name m.unit_ q2 q1 q3 (List.length xs))
        Spec.end_to_end;
      let attempted = List.length set.reps in
      let failed = attempted - List.length (ok_reps set) in
      Printf.printf "%-17s %-17s %-9s %14.6g %14s %14s %4d\n" set.workload
        "failed_runs_ratio" "ratio"
        (float_of_int failed /. float_of_int attempted)
        "" "" attempted)
    sets

let print_layers name layers =
  Printf.printf "\n%s, traced run (per layer):\n" name;
  List.iter
    (fun ((m : Spec.metric), v) ->
      if v <> 0.0 then Printf.printf "  %-30s %16.6g %s\n" m.name v m.unit_)
    layers

(* Set files hold one JSON line per end-to-end sample. Appending lets
   two builds be run in alternation into two files. *)
let append_set path set =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iteri
    (fun i r ->
      List.iter
        (fun (metric, value) ->
          output_string oc
            (Json.obj
               [ ("workload", Json.string set.workload);
                 ("seed", Json.int set.seed);
                 ("rep", Json.int i);
                 ("metric", Json.string metric);
                 ("value", Json.float value) ]);
          output_char oc '\n')
        (end_to_end r.values))
    (List.filter (fun r -> r.ok && not r.traced) set.reps);
  close_out oc

(* Samples of a set file, in file order, keyed by (workload, metric). *)
let read_set path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.trim line = "" -> loop acc
    | line -> (
        match Json.parse_flat line with
        | Error e -> failwith (Printf.sprintf "%s: %s" path e)
        | Ok v -> (
            match (Json.member "workload" v, Json.member "metric" v, Json.member "value" v) with
            | Some (Json.String w), Some (Json.String m), Some (Json.Number x) ->
                loop (((w, m), x) :: acc)
            | _ -> failwith (path ^ ": malformed sample line")))
  in
  loop []

let compare_sets base_path change_path =
  let base = read_set base_path and change = read_set change_path in
  let keys =
    List.fold_left
      (fun acc (k, _) ->
        if List.mem k acc || not (List.mem_assoc k change) then acc else k :: acc)
      [] base
    |> List.rev
  in
  let values samples k =
    List.filter_map (fun (k', x) -> if k = k' then Some x else None) samples
  in
  Printf.printf "%-17s %-17s %12s %12s %12s | %12s %12s %12s | %6s %s\n"
    "workload" "metric" "base med" "base q1" "base q3" "change med" "q1" "q3"
    "won" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((w, metric) as k) ->
      match Spec.find_end_to_end metric with
      | None -> ()
      | Some m ->
          let b = values base k and c = values change k in
          let cmp = Summary.judge ~better:m.better ~bound:m.bound ~base:b ~change:c in
          let bq1, _, bq3 = Summary.quartiles b and cq1, _, cq3 = Summary.quartiles c in
          if cmp.verdict = Summary.Worse then incr worse;
          Printf.printf
            "%-17s %-17s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %2d/%-3d %s\n"
            w metric cmp.base_median bq1 bq3 cmp.change_median cq1 cq3 cmp.won
            cmp.pairs (Summary.verdict_name cmp.verdict))
    keys;
  !worse
