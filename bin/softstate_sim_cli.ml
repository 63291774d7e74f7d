(* Command-line front end to the announce/listen simulator: run one
   experiment with everything configurable, print the consistency
   profile quantities.

     dune exec bin/softstate_sim_cli.exe -- --protocol feedback \
       --loss 0.4 --mu-hot 27 --mu-cold 7 --mu-fb 11 --duration 5000 *)

open Cmdliner

module E = Softstate_core.Experiment
module Base = Softstate_core.Base
module Consistency = Softstate_core.Consistency
module Sched = Softstate_sched.Scheduler
module Scenario = Softstate_check.Scenario

let protocol_arg =
  let doc =
    "Protocol variant: open-loop, two-queue, feedback, multicast, or \
     gossip (epidemic dissemination over the flat substrate; see the \
     --gossip-* options and --fluid)."
  in
  Arg.(
    value
    & opt (enum [ ("open-loop", `Open_loop); ("two-queue", `Two_queue);
                  ("feedback", `Feedback); ("multicast", `Multicast);
                  ("gossip", `Gossip) ])
        `Open_loop
    & info [ "protocol"; "p" ] ~doc)

(* A codec's [Error] as a Cmdliner parse error. *)
let msg_error r = Result.map_error (fun e -> `Msg e) r

let positive = Cli_arg.opt Cli_arg.positive
let positive_int = Cli_arg.opt Cli_arg.positive_int
let int_arg = Cli_arg.opt Arg.int

let seed_arg = int_arg [ "seed" ] 1 "PRNG seed; equal seeds reproduce runs."
let duration_arg = positive [ "duration"; "d" ] 5000.0 "Simulated seconds."
let lambda_arg = positive [ "lambda" ] 15.0 "Table update rate, kb/s."
let size_arg = positive_int [ "size-bits" ] 1000 "Announcement size, bits."
let loss_arg =
  let doc =
    "Channel loss process: a bare probability P (Bernoulli), or \
     ge:PGB:PBG:LG:LB for a Gilbert-Elliott chain with good-to-bad / \
     bad-to-good transition probabilities and per-state loss rates."
  in
  let parse s = msg_error (E.loss_of_string s) in
  let print fmt l = Format.pp_print_string fmt (E.loss_to_string l) in
  Arg.(
    value
    & opt (conv (parse, print)) (E.Bernoulli 0.1)
    & info [ "loss"; "l" ] ~doc)

let update_fraction_arg =
  Cli_arg.opt Cli_arg.probability [ "update-fraction" ] 0.0
    "Fraction of arrivals that update an existing record instead of \
     creating a new one."
let mu_data_arg = positive [ "mu-data" ] 45.0 "Open-loop data rate, kb/s."
let mu_hot_arg = positive [ "mu-hot" ] 20.0 "Hot queue rate, kb/s."
let mu_cold_arg = positive [ "mu-cold" ] 25.0 "Cold queue rate, kb/s."
let mu_fb_arg = positive [ "mu-fb" ] 7.0 "Feedback channel rate, kb/s."
let nack_arg = positive_int [ "nack-bits" ] 500 "NACK packet size, bits."

let receivers_arg =
  positive_int [ "receivers" ] 8
    "Multicast group size (multicast protocol only)."

let topology_arg =
  let doc =
    "Run over a multi-hop topology instead of a direct link: star:LEAVES, \
     chain:HOPS, tree:ARITY[:DEPTH] (depth defaults to 3) or \
     random:NODES:EDGE_PROB. Every edge gets the protocol's data rate and \
     its own instance of the loss process; the protocol itself then runs \
     lossless."
  in
  let parse s = msg_error (Scenario.topology_of_string s) in
  let print fmt t =
    Format.pp_print_string fmt (Scenario.topology_to_string t)
  in
  Arg.(
    value
    & opt (conv (parse, print)) E.Single_hop
    & info [ "topology" ] ~doc)

let faults_arg =
  let doc =
    "Comma-separated fault schedule over the topology (requires \
     --topology; the gossip protocol takes none): cable:I@T1-T2, node:I@T1-T2, partition@T1-T2, \
     flap:RATE:MEAN or churn:RATE:MEAN."
  in
  let parse s = msg_error (Softstate_net.Fault.specs_of_string s) in
  let print fmt specs =
    Format.fprintf fmt "%s"
      (String.concat "," (List.map Softstate_net.Fault.spec_to_string specs))
  in
  Arg.(value & opt (conv (parse, print)) [] & info [ "faults" ] ~doc)

let death_arg =
  let doc =
    "Death model: service:P (per-service probability), fixed:TTL or \
     exp:MEAN (lifetimes in seconds)."
  in
  let parse s = msg_error (Base.death_of_string s) in
  let print fmt d = Format.pp_print_string fmt (Base.death_to_string d) in
  Arg.(
    value
    & opt (conv (parse, print)) (Base.Lifetime_fixed 30.0)
    & info [ "death" ] ~doc)

let expiry_arg =
  let doc =
    "Receiver-side soft-state expiry: none, refresh:M:P (periodic sweep \
     every P seconds, timeout M estimated refresh intervals) or wheel:M \
     (per-key timers on the engine calendar, same timeout rule)."
  in
  let parse s = msg_error (Base.expiry_of_string s) in
  let print fmt e = Format.pp_print_string fmt (Base.expiry_to_string e) in
  Arg.(
    value & opt (conv (parse, print)) Base.No_expiry & info [ "expiry" ] ~doc)

let arrival_arg =
  let doc =
    "Arrival-process shape: poisson (default) or \
     flash:MULT:PERIOD:DWELL:S — bursts at MULT times the mean rate \
     for DWELL seconds out of every PERIOD, with update targets \
     Zipf(S)-skewed over the live table (S = 0 keeps them uniform)."
  in
  let parse s =
    match Softstate_core.Workload.shape_of_string s with
    | Some shape -> Ok shape
    | None -> Error (`Msg "expected poisson or flash:MULT:PERIOD:DWELL:S")
  in
  let print fmt shape =
    Format.pp_print_string fmt (Softstate_core.Workload.shape_to_string shape)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Softstate_core.Workload.Poisson
    & info [ "arrival" ] ~doc)

let sched_arg =
  let doc = "Proportional-share scheduler for the hot/cold split." in
  Arg.(
    value
    & opt
        (enum
           (List.map (fun a -> (Sched.algorithm_name a, a)) Sched.all_algorithms))
        Sched.Stride
    & info [ "sched" ] ~doc)

(* gossip-only knobs *)

let gossip_mode_arg =
  let doc = "Gossip round discipline: push or push-pull." in
  Arg.(
    value
    & opt
        (enum
           [ ("push", Softstate_core.Gossip.Push);
             ("push-pull", Softstate_core.Gossip.Push_pull) ])
        Softstate_core.Gossip.Push
    & info [ "gossip-mode" ] ~doc)

let fanout_arg =
  positive_int [ "fanout" ] 1 "Contacts per infected node per gossip round."

let rounds_arg =
  Cli_arg.opt Cli_arg.count [ "rounds" ] 64 "Gossip round budget."

let round_period_arg =
  positive [ "round-period" ] 1.0 "Simulated seconds per gossip round."

let initial_arg =
  positive_int [ "initial" ] 1 "Initially infected nodes (gossip only)."

let target_arg =
  Cli_arg.opt
    (Cli_arg.ranged Arg.float "a fraction in (0, 1]" (fun x ->
         x > 0.0 && x <= 1.0))
    [ "target" ] 1.0
    "Stop gossip once this infected fraction is reached."

let nodes_arg =
  positive_int [ "nodes"; "n" ] 1000
    "Gossip population under uniform mixing (ignored when --topology \
     selects a mesh, whose node count then governs)."

let fluid_arg =
  let doc =
    "Also integrate the mean-field fluid model and print the per-round \
     sim-vs-fluid infected fractions with the maximum gap (gossip only; \
     exact for uniform mixing, an approximation over meshes)."
  in
  Arg.(value & flag & info [ "fluid" ] ~doc)

let replications_arg =
  positive_int [ "replications"; "r" ]
    1
    "Independent replications (seeds derived from --seed); with more \
     than one, the summary reports means and confidence intervals and \
     the obs flags are ignored."

let jobs_arg =
  Cli_arg.opt Cli_arg.count [ "jobs"; "j" ]
    1
    "Domains to fan replications across (0 = all recommended). The \
     summary is identical for every job count."

(* The gossip protocol has its own result shape (infection counts and a
   round series rather than a consistency profile), so it branches off
   before any announce/listen configuration is assembled. *)
let run_gossip seed topology loss gossip_mode fanout rounds round_period
    initial target nodes fluid trace_file metrics_file report =
  let module G = Softstate_core.Gossip in
  let config =
    { E.g_seed = seed; g_topology = topology; g_nodes = nodes;
      g_mode = gossip_mode; g_fanout = fanout; g_loss = E.loss_mean loss;
      g_round_period = round_period; g_max_rounds = rounds;
      g_initial = initial; g_target = target }
  in
  let obs = Obs_cli.setup ~trace_file ~metrics_file ~report in
  let r = E.run_gossip ?obs:obs.Obs_cli.obs config in
  let horizon = match r.G.series with [||] -> 0.0 | s -> fst s.(Array.length s - 1) in
  obs.Obs_cli.finish ~now:horizon;
  (match obs.Obs_cli.report with
  | Some format ->
      print_string
        (Softstate_obs.Report.render format
           (E.gossip_report ?obs:obs.Obs_cli.obs ~config r));
      print_newline ()
  | None ->
      let n = float_of_int r.G.nodes in
      Printf.printf "gossip                %s fanout %d over %s\n"
        (G.mode_name config.E.g_mode) fanout
        (E.gossip_topology_name config);
      Printf.printf "rounds                %d\n" r.G.rounds;
      Printf.printf "infected              %d / %d (%.4f)\n" r.G.infected
        r.G.nodes
        (float_of_int r.G.infected /. n);
      Printf.printf
        "transmissions         %d (%d delivered, %d redundant, %d lost)\n"
        r.G.transmissions r.G.deliveries r.G.redundant r.G.lost;
      if r.G.misses > 0 || r.G.blackholed > 0 then
        Printf.printf "dead contacts         %d missed, %d blackholed\n"
          r.G.misses r.G.blackholed;
      let half = E.gossip_time_to r 0.5 in
      if Float.is_finite half then
        Printf.printf "time to half          %.3f s\n" half;
      Printf.printf "digest                %s\n" r.G.digest);
  if fluid then begin
    let fl = E.fluid_gossip ~rounds:r.G.rounds config in
    let gap = ref 0.0 in
    Printf.printf "\n%-6s %10s %10s\n" "round" "sim" "fluid";
    Array.iteri
      (fun i (_, c) ->
        let f = snd fl.(i) in
        gap := Float.max !gap (Float.abs (c -. f));
        Printf.printf "%-6d %10.4f %10.4f\n" i c f)
      r.G.series;
    Printf.printf "max |sim - fluid|     %.4f\n" !gap
  end

let run protocol seed duration lambda size_bits loss update_fraction arrival
    mu_data mu_hot mu_cold mu_fb nack_bits receivers topology faults death
    expiry sched gossip_mode fanout rounds round_period initial target nodes
    fluid replications jobs trace_file metrics_file report =
  match protocol with
  | `Gossip ->
      if faults <> [] then begin
        Printf.eprintf
          "softstate-sim: option '--faults': the gossip protocol takes no \
           fault schedule\n";
        exit Cmd.Exit.cli_error
      end;
      run_gossip seed topology loss gossip_mode fanout rounds round_period
        initial target nodes fluid trace_file metrics_file report
  | (`Open_loop | `Two_queue | `Feedback | `Multicast) as protocol ->
  let protocol =
    match protocol with
    | `Open_loop -> E.Open_loop { mu_data_kbps = mu_data }
    | `Two_queue -> E.Two_queue { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold }
    | `Feedback ->
        E.Feedback
          { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold; mu_fb_kbps = mu_fb;
            nack_bits; fb_lossy = false }
    | `Multicast ->
        E.Multicast
          { receivers; mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold;
            mu_fb_kbps = mu_fb; nack_bits; suppression = true;
            nack_slot = 0.5 }
  in
  let config =
    { E.seed; duration; lambda_kbps = lambda; size_bits; death;
      expiry;
      update_fraction; arrival; loss; protocol;
      topology; faults; sched;
      empty_policy = Consistency.Empty_is_consistent; record_series = false;
      obs = None }
  in
  (match E.check_faults config with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "softstate-sim: option '--faults': %s\n" e;
      exit Cmd.Exit.cli_error);
  let obs = Obs_cli.setup ~trace_file ~metrics_file ~report in
  let config = { config with E.obs = obs.Obs_cli.obs } in
  if replications > 1 then begin
    let s, _ = E.run_many ~jobs ~replications config in
    match obs.Obs_cli.report with
    | Some format ->
        print_string
          (Softstate_obs.Report.render format (E.summary_report ~config s));
        print_newline ()
    | None ->
        Printf.printf "replications          %d (jobs %d)\n" s.E.replications
          jobs;
        Printf.printf "average consistency   %.4f +/- %.4f\n"
          s.E.consistency_mean s.E.consistency_ci95;
        Printf.printf "final consistency     %.4f\n"
          s.E.final_consistency_mean;
        Printf.printf "receive latency       %.3f s (+/- %.3f, n=%d)\n"
          s.E.latency_mean s.E.latency_ci95 s.E.deliveries;
        Printf.printf "transmissions         %d (redundant fraction %.3f)\n"
          s.E.transmissions s.E.redundant_fraction_mean;
        if s.E.sent_hot + s.E.sent_cold > 0 then
          Printf.printf "hot/cold sends        %d / %d\n" s.E.sent_hot
            s.E.sent_cold;
        if s.E.nacks_sent > 0 then
          Printf.printf "nacks                 %d sent, %d delivered, %d reheats\n"
            s.E.nacks_sent s.E.nacks_delivered s.E.reheats;
        Printf.printf "link utilisation      %.3f\n" s.E.utilisation_mean
  end
  else
  let r = E.run config in
  obs.Obs_cli.finish ~now:duration;
  match obs.Obs_cli.report with
  | Some format ->
      print_string
        (Softstate_obs.Report.render format
           (E.report ?obs:obs.Obs_cli.obs ~config r));
      print_newline ()
  | None ->
      Printf.printf "average consistency   %.4f\n" r.E.avg_consistency;
      Printf.printf "final consistency     %.4f\n" r.E.final_consistency;
      Printf.printf "receive latency       %.3f s (+/- %.3f, n=%d)\n"
        r.E.latency_mean r.E.latency_ci95 r.E.deliveries;
      Printf.printf "transmissions         %d (redundant fraction %.3f)\n"
        r.E.transmissions r.E.redundant_fraction;
      if r.E.sent_hot + r.E.sent_cold > 0 then
        Printf.printf "hot/cold sends        %d / %d\n" r.E.sent_hot
          r.E.sent_cold;
      if r.E.nacks_sent > 0 then
        Printf.printf
          "nacks                 %d sent, %d delivered, %d overflowed, %d reheats\n"
          r.E.nacks_sent r.E.nacks_delivered r.E.nack_overflows r.E.reheats;
      Printf.printf "link utilisation      %.3f\n" r.E.utilisation;
      if r.E.fault_transitions > 0 || r.E.fault_drops > 0 then
        Printf.printf "faults                %d transitions, %d packets dropped\n"
          r.E.fault_transitions r.E.fault_drops;
      Printf.printf "live records at end   %d\n" r.E.live_at_end

let cmd =
  let doc = "simulate one soft-state announce/listen experiment" in
  let info = Cmd.info "softstate-sim" ~doc in
  Cmd.v info
    Term.(
      const run $ protocol_arg $ seed_arg $ duration_arg $ lambda_arg
      $ size_arg $ loss_arg $ update_fraction_arg $ arrival_arg $ mu_data_arg
      $ mu_hot_arg $ mu_cold_arg
      $ mu_fb_arg $ nack_arg $ receivers_arg $ topology_arg $ faults_arg
      $ death_arg $ expiry_arg $ sched_arg $ gossip_mode_arg $ fanout_arg
      $ rounds_arg
      $ round_period_arg $ initial_arg $ target_arg $ nodes_arg $ fluid_arg
      $ replications_arg
      $ jobs_arg $ Obs_cli.trace_arg $ Obs_cli.metrics_arg
      $ Obs_cli.report_arg)

let () = exit (Cmd.eval cmd)
