module Rng = Softstate_util.Rng
module Json = Softstate_obs.Json
module Trace = Softstate_obs.Trace

type failure = {
  index : int;
  scenario : Scenario.t;
  violations : Oracle.violation list;
  shrunk : Scenario.t;
  shrunk_violations : Oracle.violation list;
  shrink_runs : int;
  flight : Trace.event list;
}

type stats = {
  scenarios : int;
  runs : int;
  failures : failure list;
  coverage : Coverage.t;
}

let scenario_seeds ~seed ~count =
  let chain = Rng.create seed in
  Array.init count (fun _ ->
      Int64.to_int (Int64.shift_right_logical (Rng.bits64 chain) 1))

let id x = x

let oracle_battery ?(corrupt = id) ?note names =
  let rerun s = corrupt (Scenario.run s) in
  match Oracle.select ?note ~rerun names with
  | Ok oracles -> (rerun, oracles)
  | Error e -> invalid_arg ("Fuzz: " ^ e)

(* CoreSim-style seed-chain guidance: draw a few candidate scenarios
   sequentially from the scenario's own rng and keep the one touching
   the most feature buckets the run has not seen yet. Candidate 1 is
   exactly the uniform generator's scenario, so guidance can only add
   draws, never perturb the unguided stream (one candidate). *)
let guided_candidates = 4

let generate_candidate ~coverage ~candidates scenario_seed =
  let rng = Rng.create scenario_seed in
  let first = Scenario.generate rng in
  if candidates <= 1 then first
  else begin
    let unseen = Coverage.unseen_features coverage in
    let score s =
      List.length
        (List.filter (fun f -> List.mem f unseen) (Scenario.features s))
    in
    let best = ref first and best_score = ref (score first) in
    for _ = 2 to candidates do
      let s = Scenario.generate rng in
      let sc = score s in
      if sc > !best_score then begin
        best := s;
        best_score := sc
      end
    done;
    !best
  end

let check_scenario ?corrupt ?(oracles = []) scenario =
  let rerun, battery = oracle_battery ?corrupt oracles in
  Oracle.check battery (rerun scenario)

let reproducer f =
  Printf.sprintf "dune exec bin/fuzz_cli.exe -- --replay '%s'"
    (Scenario.to_string f.shrunk)

let violations_json vs =
  Json.list
    (List.map
       (fun v ->
         Json.obj
           [ ("oracle", Json.string v.Oracle.oracle);
             ("message", Json.string v.Oracle.message) ])
       vs)

let failure_to_json f =
  Json.obj
    [ ("index", Json.int f.index);
      ("scenario", Json.string (Scenario.to_string f.scenario));
      ("violations", violations_json f.violations);
      ("shrunk", Json.string (Scenario.to_string f.shrunk));
      ("shrunk_violations", violations_json f.shrunk_violations);
      ("shrink_runs", Json.int f.shrink_runs);
      ("reproducer", Json.string (reproducer f));
      (* the shrunk rerun's flight recorder: the last events before
         measurement stopped, each already a JSON object line *)
      ("flight", Json.list (List.map Trace.to_json f.flight)) ]

let run ?corrupt ?(oracles = []) ?(max_shrink = 200) ?log ?on_progress
    ?(guided = false) ~seed ~count () =
  let coverage = Coverage.create () in
  let rerun, battery =
    oracle_battery ?corrupt ~note:(Coverage.note_branch coverage) oracles
  in
  let seeds = scenario_seeds ~seed ~count in
  let runs = ref 0 in
  let failures = ref [] in
  Array.iteri
    (fun index scenario_seed ->
      let scenario =
        generate_candidate ~coverage
          ~candidates:(if guided then guided_candidates else 1)
          scenario_seed
      in
      Coverage.note_scenario coverage scenario;
      incr runs;
      let outcome = rerun scenario in
      Coverage.note_outcome coverage outcome;
      let violations = Oracle.check battery outcome in
      (match violations with
      | [] -> ()
      | violations ->
          let fails s =
            incr runs;
            Oracle.check battery (rerun s) <> []
          in
          let shrunk, shrink_runs =
            Shrink.shrink ~fails ~max_runs:max_shrink scenario
          in
          incr runs;
          let shrunk_outcome = rerun shrunk in
          let shrunk_violations = Oracle.check battery shrunk_outcome in
          let failure =
            { index; scenario; violations; shrunk; shrunk_violations;
              shrink_runs; flight = shrunk_outcome.Scenario.flight }
          in
          failures := failure :: !failures;
          Option.iter (fun f -> f (failure_to_json failure ^ "\n")) log);
      Option.iter (fun f -> f index) on_progress)
    seeds;
  { scenarios = count;
    runs = !runs;
    failures = List.rev !failures;
    coverage }

(* Generation-only coverage comparison: what fraction of the feature
   catalogue does a [count]-scenario chain touch, without running
   anything? Cheap enough for a bench row. *)
let feature_coverage ?(guided = false) ?(candidates = guided_candidates) ~seed
    ~count () =
  let coverage = Coverage.create () in
  Array.iter
    (fun scenario_seed ->
      Coverage.note_scenario coverage
        (generate_candidate ~coverage
           ~candidates:(if guided then candidates else 1)
           scenario_seed))
    (scenario_seeds ~seed ~count);
  coverage
