(* Cross-library integration tests: SSTP sessions driven by realistic
   workload traces, robustness under partitions and churn, and the
   soft-state survivability properties the paper motivates. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Trace = Softstate_trace.Trace_event
module Gen = Softstate_trace.Generators
module Session = Sstp.Session
module Namespace = Sstp.Namespace

let make_session ?(loss = Net.Loss.never) ?(mu = 128_000.0) ~seed engine =
  let config =
    { (Session.default_config ~mu_total_bps:mu) with
      Session.loss; summary_period = 0.5 }
  in
  Session.create ~engine ~rng:(Rng.create seed) ~config ()

let drive_trace engine session trace =
  Trace.replay engine trace
    ~put:(fun ~path ~payload -> Session.publish session ~path ~payload)
    ~remove:(fun ~path -> Session.remove session ~path)

(* ------------------------------------------------------------------ *)

let test_session_directory_over_sstp () =
  (* An sdr-like directory disseminated over SSTP at 10% loss: after
     the trace quiesces the receiver's directory equals the
     sender's. *)
  let engine = Engine.create () in
  let s = make_session ~loss:(Net.Loss.bernoulli 0.1) ~seed:1 engine in
  let trace =
    Gen.session_directory ~rng:(Rng.create 2) ~duration:600.0
      ~arrival_rate:0.2 ~mean_lifetime:120.0 ()
  in
  drive_trace engine s trace;
  let last = List.fold_left (fun _ e -> e.Trace.time) 0.0 trace in
  Engine.run ~until:(last +. 60.0) engine;
  Alcotest.(check bool) "directory converged" true (Session.converged s);
  Alcotest.(check bool) "directory non-empty" true
    (Namespace.leaf_count (Sstp.Sender.namespace (Session.sender s)) > 0)

let test_routing_table_over_sstp () =
  let engine = Engine.create () in
  let s = make_session ~loss:(Net.Loss.bernoulli 0.2) ~seed:3 ~mu:256_000.0 engine in
  let trace =
    Gen.routing_updates ~rng:(Rng.create 4) ~duration:300.0 ~prefixes:100 ()
  in
  drive_trace engine s trace;
  Engine.run ~until:400.0 engine;
  Alcotest.(check bool) "routing table converged" true (Session.converged s);
  (* a calm prefix must exist at the receiver with the sender's value *)
  let sns = Sstp.Sender.namespace (Session.sender s) in
  let rns = Sstp.Receiver.namespace (Session.receiver s) in
  let checked = ref 0 in
  Namespace.iter_leaves sns (fun path payload ->
      incr checked;
      if Namespace.find rns path <> Some payload then
        Alcotest.fail ("mismatch at " ^ Sstp.Path.to_string path));
  Alcotest.(check bool) "prefixes survive flapping" true (!checked > 50)

let test_stock_ticker_freshness () =
  (* High-churn quotes: perfect convergence is impossible while
     updates keep flowing, but consistency must stay high and the
     final state must converge once the market closes. *)
  let engine = Engine.create () in
  let s = make_session ~loss:(Net.Loss.bernoulli 0.05) ~seed:5 ~mu:512_000.0 engine in
  Session.track_consistency s ~period:0.5;
  let trace =
    Gen.stock_ticker ~rng:(Rng.create 6) ~duration:120.0 ~symbols:50
      ~update_rate:10.0 ()
  in
  drive_trace engine s trace;
  Engine.run ~until:150.0 engine;
  Alcotest.(check bool) "closing state converged" true (Session.converged s);
  let avg = Session.average_consistency s in
  Alcotest.(check bool)
    (Printf.sprintf "intraday consistency high (%.3f)" avg)
    true (avg > 0.85)

let test_partition_and_heal () =
  (* The paper's survivability story: a partition makes the receiver
     stale; once the partition heals, normal protocol operation alone
     (summaries + repair) restores consistency. *)
  let engine = Engine.create () in
  let loss, set_loss = Net.Loss.controlled () in
  let s = make_session ~loss ~seed:7 engine in
  Session.publish s ~path:"cfg/a" ~payload:"1";
  Session.publish s ~path:"cfg/b" ~payload:"2";
  Engine.run ~until:10.0 engine;
  Alcotest.(check bool) "synced before partition" true (Session.converged s);
  (* partition: all data packets drop *)
  set_loss 1.0;
  Session.publish s ~path:"cfg/a" ~payload:"1'";
  Session.publish s ~path:"cfg/c" ~payload:"3";
  Session.remove s ~path:"cfg/b";
  Engine.run ~until:40.0 engine;
  Alcotest.(check bool) "stale during partition" false (Session.converged s);
  (* heal *)
  set_loss 0.0;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "reconverged after heal" true (Session.converged s);
  let rns = Sstp.Receiver.namespace (Session.receiver s) in
  Alcotest.(check (option string)) "update healed" (Some "1'")
    (Namespace.find rns (Sstp.Path.of_string "cfg/a"));
  Alcotest.(check (option string)) "insert healed" (Some "3")
    (Namespace.find rns (Sstp.Path.of_string "cfg/c"));
  Alcotest.(check bool) "withdrawal healed" false
    (Namespace.mem rns (Sstp.Path.of_string "cfg/b"))

let test_receiver_crash_restart () =
  (* A crashed receiver is a fresh receiver: late-join recovery must
     rebuild the whole store from summaries and repair, with no
     sender-side involvement beyond normal protocol operation. *)
  let engine = Engine.create () in
  let loss, set_loss = Net.Loss.controlled () in
  let s = make_session ~loss ~seed:8 engine in
  for i = 0 to 19 do
    Session.publish s ~path:(Printf.sprintf "store/k%02d" i)
      ~payload:(string_of_int i)
  done;
  (* receiver "down" while the store is published *)
  set_loss 1.0;
  Engine.run ~until:30.0 engine;
  Alcotest.(check int) "receiver empty while down" 0
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s)));
  (* receiver restarts *)
  set_loss 0.0;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "restart recovered everything" true
    (Session.converged s);
  Alcotest.(check int) "all twenty keys" 20
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s)))

let test_open_loop_vs_sstp_messages () =
  (* SSTP's hierarchical repair should need far fewer messages than a
     flat periodic re-announcement of every record to resynchronise a
     single divergent leaf in a large store. *)
  let engine = Engine.create () in
  let loss, set_loss = Net.Loss.controlled () in
  let s = make_session ~loss ~seed:9 ~mu:512_000.0 engine in
  let n = 200 in
  for i = 0 to n - 1 do
    Session.publish s ~path:(Printf.sprintf "db/g%d/k%03d" (i mod 10) i)
      ~payload:(String.make 100 'x')
  done;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "initial sync" true (Session.converged s);
  let data0 = Session.data_packets s in
  (* one leaf diverges while partitioned *)
  set_loss 1.0;
  Session.publish s ~path:"db/g3/k033" ~payload:"changed";
  Engine.run ~until:62.0 engine;
  set_loss 0.0;
  (* allow repair *)
  let t = ref 62.0 in
  while (not (Session.converged s)) && !t < 120.0 do
    t := !t +. 1.0;
    Engine.run ~until:!t engine
  done;
  Alcotest.(check bool) "repaired" true (Session.converged s);
  let repair_cost = Session.data_packets s - data0 in
  (* flat re-announcement would be >= n data packets; recursive
     descent needs summaries + a handful of signature/data messages *)
  Alcotest.(check bool)
    (Printf.sprintf "repair cost %d << %d" repair_cost n)
    true
    (repair_cost < n / 2)

let test_two_sessions_independent_rngs () =
  (* Two sessions on one engine must not interfere statistically or
     structurally. *)
  let engine = Engine.create () in
  let s1 = make_session ~loss:(Net.Loss.bernoulli 0.3) ~seed:10 engine in
  let s2 = make_session ~loss:(Net.Loss.bernoulli 0.3) ~seed:11 engine in
  for i = 0 to 9 do
    Session.publish s1 ~path:(Printf.sprintf "a/%d" i) ~payload:"s1";
    Session.publish s2 ~path:(Printf.sprintf "b/%d" i) ~payload:"s2"
  done;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "s1 converged" true (Session.converged s1);
  Alcotest.(check bool) "s2 converged" true (Session.converged s2);
  Alcotest.(check int) "s1 has only its keys" 10
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s1)))

let test_core_and_sstp_agree_on_openloop_trend () =
  (* The low-level announce/listen simulator and the full SSTP stack
     are different codebases; both must show consistency falling as
     loss rises. *)
  let sstp_consistency loss =
    let engine = Engine.create () in
    let s =
      make_session ~loss:(Net.Loss.bernoulli loss) ~seed:12 ~mu:64_000.0 engine
    in
    Session.track_consistency s ~period:0.5;
    for i = 0 to 29 do
      Session.publish s ~path:(Printf.sprintf "x/%d" i) ~payload:"v"
    done;
    Engine.run ~until:30.0 engine;
    Session.average_consistency s
  in
  let c1 = sstp_consistency 0.05 and c2 = sstp_consistency 0.6 in
  Alcotest.(check bool)
    (Printf.sprintf "sstp: %.3f (5%% loss) > %.3f (60%% loss)" c1 c2)
    true (c1 > c2)

(* ------------------------------------------------------------------ *)
(* Fuzzer regression pins: one fixed-seed scenario per protocol (plus
   one SSTP session), each run through the full invariant-oracle
   battery — conservation, clock, consistency, counters, convergence,
   replay, jobs. These are the shapes the fuzzer exercises, frozen so
   a regression in any layer shows up as a named oracle violation. *)

module Check = Softstate_check
module Experiment = Softstate_core.Experiment

let check_oracles name scenario =
  match Check.Fuzz.check_scenario scenario with
  | [] -> ()
  | vs ->
      Alcotest.fail
        (Printf.sprintf "%s: %s" name
           (String.concat "; "
              (List.map
                 (fun v ->
                   v.Check.Oracle.oracle ^ ": " ^ v.Check.Oracle.message)
                 vs)))

let faults_of_string s =
  match Net.Fault.specs_of_string s with
  | Ok fs -> fs
  | Error e -> Alcotest.fail ("bad fault spec: " ^ e)

let regression_base =
  { Experiment.default with
    Experiment.duration = 60.0;
    record_series = true;
    obs = None }

let test_fuzz_regression_open_loop () =
  check_oracles "open loop"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 101;
         protocol = Experiment.Open_loop { mu_data_kbps = 30.0 };
         loss = Experiment.Bernoulli 0.2 })

let test_fuzz_regression_two_queue () =
  check_oracles "two queue"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 102;
         protocol =
           Experiment.Two_queue { mu_hot_kbps = 24.0; mu_cold_kbps = 12.0 };
         loss =
           Experiment.Gilbert_elliott
             { p_good_to_bad = 0.02; p_bad_to_good = 0.3; loss_good = 0.01;
               loss_bad = 0.6 } })

let test_fuzz_regression_feedback () =
  check_oracles "feedback over faulted chain"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 103;
         protocol =
           Experiment.Feedback
             { mu_hot_kbps = 24.0; mu_cold_kbps = 12.0; mu_fb_kbps = 8.0;
               nack_bits = 200; fb_lossy = true };
         loss = Experiment.Bernoulli 0.1;
         topology = Experiment.Chain { hops = 3 };
         faults = faults_of_string "cable:1@20-35" })

let test_fuzz_regression_multicast () =
  check_oracles "multicast over tree"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 104;
         protocol =
           Experiment.Multicast
             { receivers = 4; mu_hot_kbps = 24.0; mu_cold_kbps = 12.0;
               mu_fb_kbps = 8.0; nack_bits = 200; suppression = true;
               nack_slot = 0.5 };
         loss = Experiment.Bernoulli 0.1;
         topology = Experiment.Kary_tree { arity = 2; depth = 2 } })

(* Production-shaped workload pins: the three adversarial dimensions
   the coverage-guided fuzzer sweeps — flash-crowd arrivals over the
   NACK machinery, sustained receiver churn, and a correlated fault
   storm — frozen at fixed seeds so a regression in any layer shows
   up as a named oracle violation (including replay determinism and
   jobs-invariance, which re-execute the scenario). *)

let test_fuzz_regression_flash_crowd () =
  check_oracles "flash-crowd multicast"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 107;
         arrival =
           Softstate_core.Workload.Flash_crowd
             { mult = 8.0; period = 12.0; dwell = 2.5; zipf_s = 1.1 };
         update_fraction = 0.4;
         protocol =
           Experiment.Multicast
             { receivers = 4; mu_hot_kbps = 48.0; mu_cold_kbps = 12.0;
               mu_fb_kbps = 8.0; nack_bits = 200; suppression = true;
               nack_slot = 0.5 };
         loss = Experiment.Bernoulli 0.15 })

let test_fuzz_regression_churn_storm () =
  check_oracles "churn waves over star"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 108;
         protocol =
           Experiment.Feedback
             { mu_hot_kbps = 24.0; mu_cold_kbps = 12.0; mu_fb_kbps = 8.0;
               nack_bits = 200; fb_lossy = false };
         loss = Experiment.Bernoulli 0.05;
         topology = Experiment.Star { leaves = 6 };
         faults = faults_of_string "churnwave:15:0.34:4" })

let test_fuzz_regression_fault_storm () =
  check_oracles "correlated storm over tree"
    (Check.Scenario.Core
       { regression_base with
         Experiment.seed = 109;
         protocol =
           Experiment.Two_queue { mu_hot_kbps = 24.0; mu_cold_kbps = 12.0 };
         loss = Experiment.Bernoulli 0.1;
         topology = Experiment.Kary_tree { arity = 2; depth = 3 };
         faults = faults_of_string "storm:5:6@20-32,flap:0.02:3" })

let test_fuzz_regression_gossip () =
  check_oracles "gossip over random mesh"
    (Check.Scenario.Gossip
       { Experiment.gossip_default with
         Experiment.g_seed = 106;
         g_topology = Experiment.Random_graph { nodes = 150; edge_prob = 0.05 };
         g_mode = Softstate_core.Gossip.Push_pull;
         g_fanout = 2;
         g_loss = 0.15;
         g_max_rounds = 32 })

let test_fuzz_regression_sstp () =
  check_oracles "sstp session"
    (Check.Scenario.Sstp
       { Check.Scenario.s_seed = 105;
         mu_total_kbps = 128.0;
         s_loss = Experiment.Bernoulli 0.1;
         publishes = 12;
         publish_window = 20.0;
         removes = 3;
         s_duration = 60.0;
         summary_period = 0.5;
         workload = Check.Scenario.Script })

let () =
  Alcotest.run "integration"
    [
      ( "applications",
        [
          Alcotest.test_case "session directory over sstp" `Slow
            test_session_directory_over_sstp;
          Alcotest.test_case "routing table over sstp" `Slow
            test_routing_table_over_sstp;
          Alcotest.test_case "stock ticker freshness" `Slow
            test_stock_ticker_freshness;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "receiver crash/restart" `Quick
            test_receiver_crash_restart;
          Alcotest.test_case "repair efficiency vs flat" `Slow
            test_open_loop_vs_sstp_messages;
          Alcotest.test_case "independent sessions" `Quick
            test_two_sessions_independent_rngs;
          Alcotest.test_case "loss trend agreement" `Slow
            test_core_and_sstp_agree_on_openloop_trend;
        ] );
      ( "fuzz regressions",
        [
          Alcotest.test_case "open loop" `Quick test_fuzz_regression_open_loop;
          Alcotest.test_case "two queue" `Quick test_fuzz_regression_two_queue;
          Alcotest.test_case "feedback over faulted chain" `Quick
            test_fuzz_regression_feedback;
          Alcotest.test_case "multicast over tree" `Quick
            test_fuzz_regression_multicast;
          Alcotest.test_case "sstp session" `Quick test_fuzz_regression_sstp;
          Alcotest.test_case "gossip over random mesh" `Quick
            test_fuzz_regression_gossip;
          Alcotest.test_case "flash-crowd multicast" `Quick
            test_fuzz_regression_flash_crowd;
          Alcotest.test_case "churn waves over star" `Quick
            test_fuzz_regression_churn_storm;
          Alcotest.test_case "correlated fault storm" `Quick
            test_fuzz_regression_fault_storm;
        ] );
    ]
