(* Fuzzer self-tests: the bounded fuzz pass that must stay clean, the
   mutation smoke test proving the oracles catch (and shrink) planted
   bugs, and properties of the scenario codec and seed chain. *)

module Check = Softstate_check
module Scenario = Check.Scenario
module Oracle = Check.Oracle
module Shrink = Check.Shrink
module Fuzz = Check.Fuzz
module Coverage = Check.Coverage
module Rng = Softstate_util.Rng
module Experiment = Softstate_core.Experiment

(* ------------------------------------------------------------------ *)
(* The CI-facing property: a bounded fuzz pass over the whole scenario
   space (every protocol, topology, loss process and fault schedule,
   plus SSTP sessions) with every oracle armed and zero violations. *)

let test_fuzz_pass_clean () =
  let stats = Fuzz.run ~seed:1 ~count:200 () in
  Alcotest.(check int) "scenarios" 200 stats.Fuzz.scenarios;
  (match stats.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "scenario %d violated %s: %s" f.Fuzz.index
        (match f.Fuzz.violations with
        | v :: _ -> v.Oracle.oracle
        | [] -> "?")
        (Scenario.to_string f.Fuzz.scenario));
  Alcotest.(check bool) "ran at least one execution" true (stats.Fuzz.runs >= 200)

(* ------------------------------------------------------------------ *)
(* Mutation smoke test: plant the exact accounting bug the
   conservation oracle exists for and demand that the fuzzer both
   catches it and shrinks it to a minimal single-hop reproducer. *)

let corrupt_delivered outcome =
  match outcome.Scenario.payload with
  | Scenario.Core_result r ->
      { outcome with
        Scenario.payload =
          Scenario.Core_result
            { r with
              Experiment.packets_delivered =
                r.Experiment.packets_delivered + 100 } }
  | Scenario.Gossip_result r ->
      { outcome with
        Scenario.payload =
          Scenario.Gossip_result
            { r with
              Softstate_core.Gossip.deliveries =
                r.Softstate_core.Gossip.deliveries + 100 } }
  | Scenario.Sstp_result _ -> outcome

(* The reproducer is one fuzz_cli command line whose quoted scenario
   parses back to the shrunk scenario exactly. *)
let check_reproducer (f : Fuzz.failure) =
  let line = Fuzz.reproducer f in
  Alcotest.(check bool) "reproducer is one line" false
    (String.contains line '\n');
  match String.split_on_char '\'' line with
  | [ command; scenario; "" ] ->
      Alcotest.(check string) "reproducer runs fuzz_cli"
        "dune exec bin/fuzz_cli.exe -- --replay " command;
      Alcotest.(check bool) "reproducer mentions replay" true
        (Scenario.of_string scenario = Ok f.Fuzz.shrunk)
  | _ -> Alcotest.failf "reproducer quotes no scenario: %s" line

let test_mutation_smoke () =
  let stats =
    Fuzz.run ~corrupt:corrupt_delivered ~oracles:[ "conservation" ]
      ~max_shrink:100 ~seed:1 ~count:5 ()
  in
  Alcotest.(check bool) "planted bug caught" true (stats.Fuzz.failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "shrunk form still fails" true
        (f.Fuzz.shrunk_violations <> []);
      match f.Fuzz.shrunk with
      | Scenario.Core c ->
          Alcotest.(check bool) "shrunk to single hop" true
            (c.Experiment.topology = Experiment.Single_hop);
          Alcotest.(check bool) "faults shrunk away" true
            (c.Experiment.faults = []);
          check_reproducer f
      | Scenario.Gossip g ->
          Alcotest.(check bool) "gossip shrunk to uniform mixing" true
            (g.Experiment.g_topology = Experiment.Single_hop);
          Alcotest.(check bool) "gossip loss shrunk away" true
            (Float.equal g.Experiment.g_loss 0.0)
      | Scenario.Sstp _ ->
          Alcotest.fail "sstp scenario failed a counter corruption")
    stats.Fuzz.failures;
  (* generated scenarios carry full-precision floats that %g would
     round: their reproducers must still be exact *)
  for seed = 1 to 20 do
    let s = Scenario.generate (Rng.create seed) in
    check_reproducer
      { Fuzz.index = 0; scenario = s; violations = []; shrunk = s;
        shrunk_violations = []; shrink_runs = 0; flight = [] }
  done

(* ------------------------------------------------------------------ *)
(* NACK-stability frontier: the backlog oracle must flag the canonical
   undamped supercritical multicast configuration (every retransmission
   takes a fresh sequence number, so with NACK damping off and
   loss x receivers > 1 each lost repair breeds more than one fresh
   NACK — an imploding feedback loop), and must pass the identical
   workload with damping on. *)

let frontier_config ~suppression =
  { Experiment.default with
    Experiment.duration = 4.0;
    lambda_kbps = 1.0;
    size_bits = 1000;
    protocol =
      Experiment.Multicast
        { receivers = 8; mu_hot_kbps = 1000.0; mu_cold_kbps = 2.0;
          mu_fb_kbps = 100.0; nack_slot = 0.5; nack_bits = 100; suppression };
    loss = Experiment.Bernoulli 0.3;
    death = Softstate_core.Base.Lifetime_fixed 600.0;
    expiry = Softstate_core.Base.No_expiry;
    record_series = true;
    obs = None }

let test_backlog_frontier () =
  (match
     Fuzz.check_scenario ~oracles:[ "backlog" ]
       (Scenario.Core (frontier_config ~suppression:false))
   with
  | [] -> Alcotest.fail "undamped supercritical multicast not flagged"
  | vs ->
      List.iter
        (fun v ->
          Alcotest.(check string) "backlog oracle fired" "backlog"
            v.Oracle.oracle)
        vs);
  Alcotest.(check (list string))
    "damped twin passes" []
    (List.map
       (fun v -> v.Oracle.message)
       (Fuzz.check_scenario ~oracles:[ "backlog" ]
          (Scenario.Core (frontier_config ~suppression:true))))

(* ------------------------------------------------------------------ *)
(* Coverage map: determinism, the guided-vs-uniform pin, and the
   guidance opt-out contract (one candidate = the uniform stream). *)

let test_coverage_determinism () =
  let a = Fuzz.feature_coverage ~guided:true ~seed:7 ~count:30 () in
  let b = Fuzz.feature_coverage ~guided:true ~seed:7 ~count:30 () in
  Alcotest.(check string)
    "same table" (Coverage.to_string a) (Coverage.to_string b)

let test_guided_beats_uniform () =
  (* compared below saturation: by ~100 scenarios both streams touch
     every bucket, at 20 the gap is widest *)
  let count = 20 in
  List.iter
    (fun seed ->
      let u = Coverage.feature_count (Fuzz.feature_coverage ~seed ~count ()) in
      let g =
        Coverage.feature_count
          (Fuzz.feature_coverage ~guided:true ~seed ~count ())
      in
      if g <= u then
        Alcotest.failf "guided %d <= uniform %d at seed %d" g u seed)
    [ 1; 20260807 ]

let test_guided_single_candidate_is_uniform () =
  let u = Fuzz.feature_coverage ~seed:11 ~count:25 () in
  let g = Fuzz.feature_coverage ~guided:true ~candidates:1 ~seed:11 ~count:25 () in
  Alcotest.(check string)
    "one candidate = uniform stream" (Coverage.to_string u)
    (Coverage.to_string g)

(* ------------------------------------------------------------------ *)

let test_seed_chain_prefix () =
  (* scenario i is reproducible standalone: the seed chain is a pure
     function of (seed, i), independent of count *)
  let a = Fuzz.scenario_seeds ~seed:42 ~count:10 in
  let b = Fuzz.scenario_seeds ~seed:42 ~count:20 in
  Alcotest.(check (array int)) "prefix stable" a (Array.sub b 0 10);
  let c = Fuzz.scenario_seeds ~seed:43 ~count:10 in
  Alcotest.(check bool) "seed matters" true (a <> c)

let test_oracle_select () =
  (match Oracle.select [ "conservation"; "clock" ] with
  | Ok os ->
      Alcotest.(check (list string))
        "selected in order" [ "conservation"; "clock" ]
        (List.map (fun o -> o.Oracle.name) os)
  | Error e -> Alcotest.fail e);
  match Oracle.select [ "no-such-oracle" ] with
  | Ok _ -> Alcotest.fail "unknown oracle accepted"
  | Error e ->
      Alcotest.(check bool) "error names the oracle" true
        (String.length e > 0)

(* The topology grammar is total: a shape the builders would reject
   fails to parse, instead of raising inside [Experiment.run] or, for
   a NaN edge probability, running silently as a bare chain. *)
(* The loss grammar is total: every spec Loss would reject (NaN,
   infinities, probabilities outside [0,1]) and every malformed one is
   an Error, never an exception; a bare P is shorthand for b:P. *)
let test_loss_grammar_rejects () =
  List.iter
    (fun bad ->
      match Experiment.loss_of_string bad with
      | Ok _ -> Alcotest.failf "accepted loss %S" bad
      | Error _ -> ())
    [ "nan"; "b:nan"; "ge:nan:0.1:0.1:0.5"; "1.5"; "-0.1"; "inf"; "b:-inf";
      "ge:0.1:0.1:0.1:2"; "ge:0.1:0.1:0.1"; "ge:0.1:x:0.1:0.5"; "b:"; "";
      "x"; "b:0.1:0.2" ];
  List.iter
    (fun (text, want) ->
      match Experiment.loss_of_string text with
      | Ok spec ->
          Alcotest.(check bool) ("parses " ^ text) true (spec = want);
          Alcotest.(check bool) ("round-trips " ^ text) true
            (Experiment.loss_of_string (Experiment.loss_to_string spec)
            = Ok spec)
      | Error e -> Alcotest.fail e)
    [ ("0.3", Experiment.Bernoulli 0.3); ("b:0", Experiment.Bernoulli 0.0);
      ( "ge:0.01:0.2:0:1",
        Experiment.Gilbert_elliott
          { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_good = 0.0;
            loss_bad = 1.0 } ) ]

let test_topology_grammar_rejects () =
  let base =
    Scenario.to_string
      (Scenario.Core
         { Experiment.default with
           Experiment.topology = Experiment.Chain { hops = 2 } })
  in
  (match Scenario.of_string base with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let with_topo topo =
    String.concat " "
      (List.map
         (fun tok ->
           if String.starts_with ~prefix:"topo=" tok then "topo=" ^ topo
           else tok)
         (String.split_on_char ' ' base))
  in
  List.iter
    (fun bad ->
      match Scenario.of_string (with_topo bad) with
      | Ok _ -> Alcotest.failf "accepted topo=%s" bad
      | Error _ -> ())
    [ "random:10:nan"; "star:0"; "chain:-1"; "tree:0:2"; "tree:0";
      "random:1:0.5"; "random:10:2" ]

(* A numeric field outside the range the runner's constructors enforce
   is a parse [Error], never an [Invalid_argument] (or a silent run)
   once the scenario starts. *)
let test_numeric_ranges_rejected () =
  let core =
    "core seed=1 dur=50 lambda=10 size=1000 death=service:0.5 expiry=none \
     uf=0 arrival=poisson loss=0.1 proto=twoq:10:5 topo=single-hop faults=- \
     sched=stride empty=consistent"
  in
  let sstp =
    "sstp seed=1 mu=64 loss=0.1 pubs=10 pubwin=20 removes=2 dur=60 sumper=1 \
     workload=script"
  in
  let gossip =
    "gossip seed=1 topo=single-hop nodes=50 mode=push fanout=1 loss=0.1 \
     period=1 rounds=20 init=1 target=0.9"
  in
  let with_field base field =
    let key = List.hd (String.split_on_char '=' field) in
    String.concat " "
      (List.map
         (fun tok ->
           if String.starts_with ~prefix:(key ^ "=") tok then field else tok)
         (String.split_on_char ' ' base))
  in
  List.iter
    (fun base ->
      match Scenario.of_string base with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ core; sstp; gossip ];
  List.iter
    (fun (base, field) ->
      match Scenario.of_string (with_field base field) with
      | Ok _ -> Alcotest.failf "accepted %s" field
      | Error _ -> ())
    [ (sstp, "mu=nan"); (sstp, "mu=0"); (sstp, "sumper=0"); (sstp, "dur=nan");
      (sstp, "pubs=-3"); (sstp, "removes=-1"); (sstp, "pubwin=nan");
      (sstp, "workload=flash:8:2:nan:10:2:1");
      (core, "lambda=0"); (core, "size=-5"); (core, "uf=3"); (core, "dur=nan");
      (core, "proto=open:nan"); (core, "proto=twoq:0:5");
      (core, "proto=fb:10:5:0:100:true"); (core, "proto=fb:10:5:2:0:true");
      (core, "proto=mc:0:10:5:2:100:true:0.1");
      (core, "proto=mc:3:10:5:2:100:true:0");
      (core, "arrival=flash:nan:10:2:0");
      (gossip, "fanout=0"); (gossip, "period=nan"); (gossip, "loss=nan");
      (gossip, "nodes=0"); (gossip, "rounds=-1"); (gossip, "init=0");
      (gossip, "target=0") ]

(* ------------------------------------------------------------------ *)
(* qcheck properties over the generator *)

let qcheck_scenario_roundtrip =
  QCheck.Test.make ~name:"scenario to_string/of_string roundtrip" ~count:300
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let s = Scenario.generate (Rng.create seed) in
      match Scenario.of_string (Scenario.to_string s) with
      | Ok s' -> Stdlib.compare s s' = 0
      | Error _ -> false)

let qcheck_shrink_candidates_differ =
  QCheck.Test.make ~name:"shrink candidates differ from parent" ~count:300
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let s = Scenario.generate (Rng.create seed) in
      List.for_all (fun c -> Stdlib.compare c s <> 0) (Shrink.candidates s))

let qcheck_shrink_measure_decreases =
  (* shrinking's termination argument: every rung of the ladder
     strictly decreases the scalar complexity *)
  QCheck.Test.make ~name:"shrink candidates strictly decrease measure"
    ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let s = Scenario.generate (Rng.create seed) in
      let m = Shrink.measure s in
      List.for_all (fun c -> Shrink.measure c < m) (Shrink.candidates s))

let qcheck_coverage_roundtrip =
  QCheck.Test.make ~name:"coverage serialization roundtrip" ~count:100
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let cov = Fuzz.feature_coverage ~seed ~count:5 () in
      (* populate the other two dimensions as well *)
      Coverage.note_event cov "announce";
      Coverage.note_event cov "announce";
      Coverage.note_branch cov "clock:events";
      let s = Coverage.to_string cov in
      match Coverage.of_string s with
      | Error _ -> false
      | Ok cov' -> String.equal (Coverage.to_string cov') s)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ qcheck_scenario_roundtrip; qcheck_shrink_candidates_differ;
        qcheck_shrink_measure_decreases; qcheck_coverage_roundtrip ]
  in
  Alcotest.run "softstate_check"
    [
      ( "fuzz",
        [
          Alcotest.test_case "200 scenarios clean" `Slow test_fuzz_pass_clean;
          Alcotest.test_case "mutation smoke" `Slow test_mutation_smoke;
          Alcotest.test_case "seed chain prefix" `Quick test_seed_chain_prefix;
          Alcotest.test_case "oracle select" `Quick test_oracle_select;
          Alcotest.test_case "topology grammar rejects" `Quick
            test_topology_grammar_rejects;
          Alcotest.test_case "numeric ranges rejected" `Quick
            test_numeric_ranges_rejected;
          Alcotest.test_case "loss grammar rejects" `Quick
            test_loss_grammar_rejects;
        ] );
      ( "backlog",
        [ Alcotest.test_case "stability frontier" `Slow test_backlog_frontier ]
      );
      ( "coverage",
        [
          Alcotest.test_case "deterministic" `Quick test_coverage_determinism;
          Alcotest.test_case "guided beats uniform" `Slow
            test_guided_beats_uniform;
          Alcotest.test_case "single candidate = uniform" `Quick
            test_guided_single_candidate_is_uniform;
        ] );
      ("properties", qsuite);
    ]
