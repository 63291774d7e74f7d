(* Replay a synthetic application workload over an SSTP session and
   report the consistency, latency and traffic outcome.

     dune exec bin/sstp_replay_cli.exe -- --workload session-directory \
       --loss 0.2 --mu-total 128 --duration 600 *)

open Cmdliner

module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Session = Sstp.Session
module Gen = Softstate_trace.Generators
module Trace = Softstate_trace.Trace_event
module Rng = Softstate_util.Rng

type workload = Session_directory | Routing_updates | Stock_ticker

let workload_arg =
  let doc = "Workload: session-directory, routing-updates or stock-ticker." in
  Arg.(
    value
    & opt
        (enum
           [ ("session-directory", Session_directory);
             ("routing-updates", Routing_updates);
             ("stock-ticker", Stock_ticker) ])
        Session_directory
    & info [ "workload"; "w" ] ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.")

let loss_arg =
  Cli_arg.opt Cli_arg.probability [ "loss"; "l" ] 0.1
    "Data-channel loss probability."

let mu_arg =
  Cli_arg.opt Cli_arg.positive [ "mu-total" ] 128.0 "Session bandwidth, kb/s."

let duration_arg =
  Cli_arg.opt Cli_arg.positive [ "duration"; "d" ] 600.0
    "Trace duration, seconds."

let fb_share_arg =
  Cli_arg.opt Cli_arg.share [ "fb-share" ] 0.15
    "Feedback share of the session (0 announces only)."

let run workload seed loss mu_total duration fb_share trace_file metrics_file
    report =
  let engine = Engine.create () in
  let obs = Obs_cli.setup ~trace_file ~metrics_file ~report in
  (match obs.Obs_cli.obs with
  | Some o -> Softstate_obs.Engine_probe.attach ~obs:o engine
  | None -> ());
  let mu = mu_total *. 1000.0 in
  let reliability =
    if fb_share <= 0.0 then Session.Announce_only
    else
      Session.Manual
        { mu_hot_bps = 0.75 *. (1.0 -. fb_share) *. mu;
          mu_cold_bps = 0.25 *. (1.0 -. fb_share) *. mu;
          mu_fb_bps = fb_share *. mu }
  in
  let config =
    { (Session.default_config ~mu_total_bps:mu) with
      Session.loss = Net.Loss.bernoulli loss;
      reliability;
      summary_period = 0.5 }
  in
  let session =
    Session.create ?obs:obs.Obs_cli.obs ~engine ~rng:(Rng.create seed) ~config
      ()
  in
  Session.track_consistency session ~period:0.5;
  let trace_rng = Rng.create (seed + 1) in
  let trace =
    match workload with
    | Session_directory -> Gen.session_directory ~rng:trace_rng ~duration ()
    | Routing_updates -> Gen.routing_updates ~rng:trace_rng ~duration ()
    | Stock_ticker -> Gen.stock_ticker ~rng:trace_rng ~duration ()
  in
  (* propagation delay of each update, receiver-side *)
  let published : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let staleness = Softstate_util.Stats.Welford.create () in
  Sstp.Receiver.on_update (Session.receiver session) (fun path _ ->
      match Hashtbl.find_opt published (Sstp.Path.to_string path) with
      | Some t ->
          Softstate_util.Stats.Welford.add staleness (Engine.now engine -. t)
      | None -> ());
  Trace.replay engine trace
    ~put:(fun ~path ~payload ->
      Hashtbl.replace published path (Engine.now engine);
      Session.publish session ~path ~payload)
    ~remove:(fun ~path -> Session.remove session ~path);
  Engine.run ~until:(duration +. 60.0) engine;
  let now = Engine.now engine in
  obs.Obs_cli.finish ~now;
  match obs.Obs_cli.report with
  | Some format ->
      let module R = Softstate_obs.Report in
      let sections =
        [ R.section "run"
            [ ("events_replayed", R.int (Trace.length trace));
              ("seed", R.int seed);
              ("duration_s", R.float duration);
              ("mu_total_kbps", R.float mu_total);
              ("loss", R.float loss) ];
          R.section "consistency"
            [ ("average", R.float (Session.average_consistency session));
              ("final", R.float (Session.consistency session));
              ("converged", R.bool (Session.converged session));
              ( "staleness_mean_s",
                R.float (Softstate_util.Stats.Welford.mean staleness) );
              ( "staleness_samples",
                R.int (Softstate_util.Stats.Welford.count staleness) ) ];
          R.section "traffic"
            [ ("data_packets", R.int (Session.data_packets session));
              ("feedback_packets", R.int (Session.feedback_packets session));
              ( "nacks_sent",
                R.int (Sstp.Receiver.nacks_sent (Session.receiver session)) );
              ( "queries_sent",
                R.int (Sstp.Receiver.queries_sent (Session.receiver session))
              );
              ("utilisation", R.float (Session.link_utilisation session)) ] ]
      in
      let sections =
        match obs.Obs_cli.obs with
        | None -> sections
        | Some o ->
            sections @ [ R.of_metrics (Softstate_obs.Obs.metrics o) ~now ]
      in
      print_string (R.render format (R.make ~name:"sstp-replay" sections));
      print_newline ()
  | None ->
      Printf.printf "events replayed       %d\n" (Trace.length trace);
      Printf.printf "average consistency   %.4f\n"
        (Session.average_consistency session);
      Printf.printf "final consistency     %.4f (converged %b)\n"
        (Session.consistency session)
        (Session.converged session);
      Printf.printf "update staleness      %.3f s mean (n=%d)\n"
        (Softstate_util.Stats.Welford.mean staleness)
        (Softstate_util.Stats.Welford.count staleness);
      Printf.printf "data packets          %d delivered (utilisation %.3f)\n"
        (Session.data_packets session)
        (Session.link_utilisation session);
      Printf.printf "feedback              %d delivered; %d NACKs, %d queries\n"
        (Session.feedback_packets session)
        (Sstp.Receiver.nacks_sent (Session.receiver session))
        (Sstp.Receiver.queries_sent (Session.receiver session))

let cmd =
  let doc = "replay a synthetic workload over an SSTP session" in
  Cmd.v (Cmd.info "sstp-replay" ~doc)
    Term.(
      const run $ workload_arg $ seed_arg $ loss_arg $ mu_arg $ duration_arg
      $ fb_share_arg $ Obs_cli.trace_arg $ Obs_cli.metrics_arg
      $ Obs_cli.report_arg)

let () = exit (Cmd.eval cmd)
