module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Rng = Softstate_util.Rng
module Stats = Softstate_util.Stats
module Sched = Softstate_sched.Scheduler

type loss_spec =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

let make_loss = function
  | Bernoulli p -> Net.Loss.bernoulli p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      Net.Loss.gilbert_elliott ~p_good_to_bad ~p_bad_to_good ~loss_good
        ~loss_bad

let loss_mean spec = Net.Loss.mean_rate (make_loss spec)

let f17 = Printf.sprintf "%.17g"

let loss_to_string = function
  | Bernoulli p -> "b:" ^ f17 p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      Printf.sprintf "ge:%s:%s:%s:%s" (f17 p_good_to_bad) (f17 p_bad_to_good)
        (f17 loss_good) (f17 loss_bad)

let loss_of_string s =
  let bernoulli p = Option.map (fun p -> Bernoulli p) (float_of_string_opt p) in
  let spec =
    match String.split_on_char ':' s with
    | [ p ] | [ "b"; p ] -> bernoulli p
    | [ "ge"; a; b; c; d ] -> (
        match List.map float_of_string_opt [ a; b; c; d ] with
        | [ Some p_good_to_bad; Some p_bad_to_good; Some loss_good;
            Some loss_bad ] ->
            Some
              (Gilbert_elliott
                 { p_good_to_bad; p_bad_to_good; loss_good; loss_bad })
        | _ -> None)
    | _ -> None
  in
  match spec with
  | None -> Error ("bad loss spec " ^ s ^ " (want P, b:P or ge:PGB:PBG:LG:LB)")
  | Some spec -> (
      match make_loss spec with
      | _ -> Ok spec
      | exception Invalid_argument _ ->
          Error ("loss spec " ^ s ^ " has a probability outside [0,1]"))

type protocol_spec =
  | Open_loop of { mu_data_kbps : float }
  | Two_queue of { mu_hot_kbps : float; mu_cold_kbps : float }
  | Feedback of {
      mu_hot_kbps : float;
      mu_cold_kbps : float;
      mu_fb_kbps : float;
      nack_bits : int;
      fb_lossy : bool;
    }
  | Multicast of {
      receivers : int;
      mu_hot_kbps : float;
      mu_cold_kbps : float;
      mu_fb_kbps : float;
      nack_bits : int;
      suppression : bool;
      nack_slot : float;
    }

type topology_spec =
  | Single_hop
  | Star of { leaves : int }
  | Chain of { hops : int }
  | Kary_tree of { arity : int; depth : int }
  | Random_graph of { nodes : int; edge_prob : float }

type config = {
  seed : int;
  duration : float;
  lambda_kbps : float;
  size_bits : int;
  death : Base.death_spec;
  expiry : Base.expiry_spec;
  update_fraction : float;
  arrival : Workload.shape;
  loss : loss_spec;
  protocol : protocol_spec;
  topology : topology_spec;
  faults : Net.Fault.spec list;
  sched : Sched.algorithm;
  empty_policy : Consistency.empty_policy;
  record_series : bool;
  obs : Softstate_obs.Obs.t option;
}

let default =
  { seed = 1; duration = 2000.0; lambda_kbps = 15.0; size_bits = 1000;
    death = Base.Lifetime_fixed 30.0; expiry = Base.No_expiry;
    update_fraction = 0.0;
    arrival = Workload.Poisson;
    loss = Bernoulli 0.1;
    protocol = Open_loop { mu_data_kbps = 45.0 };
    topology = Single_hop; faults = [];
    sched = Sched.Stride;
    empty_policy = Consistency.Empty_is_consistent; record_series = false;
    obs = None }

type result = {
  avg_consistency : float;
  final_consistency : float;
  latency_mean : float;
  latency_ci95 : float;
  deliveries : int;
  transmissions : int;
  redundant_fraction : float;
  sent_hot : int;
  sent_cold : int;
  nacks_wanted : int;
  nacks_sent : int;
  nacks_suppressed : int;
  nacks_delivered : int;
  nack_overflows : int;
  reheats : int;
  false_expiries : int;
  stale_purged : int;
  live_at_end : int;
  utilisation : float;
  fault_transitions : int;
  fault_drops : int;
  packets_sent : int;
  packets_delivered : int;
  packets_dropped : int;
  series : (float * float) list;
}

let kbps x = x *. 1000.0

let data_rate_kbps = function
  | Open_loop { mu_data_kbps } -> mu_data_kbps
  | Two_queue { mu_hot_kbps; mu_cold_kbps }
  | Feedback { mu_hot_kbps; mu_cold_kbps; _ }
  | Multicast { mu_hot_kbps; mu_cold_kbps; _ } ->
      mu_hot_kbps +. mu_cold_kbps

(* The flat graph of a topology spec; [rng] feeds only the random
   builder. *)
let flat_graph ~rng = function
  | Single_hop -> invalid_arg "Experiment: a single hop has no graph"
  | Star { leaves } -> Net.Flat_topology.star ~leaves ()
  | Chain { hops } -> Net.Flat_topology.chain ~hops ()
  | Kary_tree { arity; depth } -> Net.Flat_topology.kary_tree ~arity ~depth ()
  | Random_graph { nodes; edge_prob } ->
      Net.Flat_topology.random ~rng ~nodes ~edge_prob ()

let check_faults config =
  match (config.faults, config.topology) with
  | [], _ -> Ok ()
  | _, Single_hop -> Error "faults need a topology"
  | faults, spec ->
      (* [run] builds the topology on the seed's third split, after
         the base's and the links' *)
      let rng = Rng.create config.seed in
      ignore (Rng.split rng);
      ignore (Rng.split rng);
      let g = flat_graph ~rng:(Rng.split rng) spec in
      Net.Fault.check
        ~nodes:(Net.Flat_topology.node_count g)
        ~cables:(Net.Flat_topology.cable_count g)
        faults

let run config =
  if config.duration <= 0.0 then
    invalid_arg "Experiment.run: duration must be positive";
  let receivers =
    match config.protocol with Multicast { receivers; _ } -> receivers | _ -> 1
  in
  let engine = Engine.create () in
  let rng = Rng.create config.seed in
  let workload =
    Workload.of_kbps ~update_fraction:config.update_fraction
      ~shape:config.arrival ~lambda_kbps:config.lambda_kbps
      ~size_bits:config.size_bits ()
  in
  let tracker =
    Consistency.create ~empty_policy:config.empty_policy
      ~record_series:config.record_series ~receivers ~now:0.0 ()
  in
  let base =
    Base.create ~engine ~rng:(Rng.split rng) ~workload ~death:config.death
      ~expiry:config.expiry ~receivers ~tracker ()
  in
  let link_rng = Rng.split rng in
  let obs = config.obs in
  (match obs with
  | Some o -> Softstate_obs.Engine_probe.attach ~obs:o engine
  | None -> ());
  (* Topology mode moves the loss processes onto the graph's edges
     (one fresh instance per overlay edge), so the protocol itself
     runs lossless; the extra generator splits happen only here,
     keeping single-hop runs byte-identical to the pre-topology
     code. *)
  let topo =
    match config.topology with
    | Single_hop ->
        if config.faults <> [] then
          invalid_arg "Experiment.run: faults need a topology";
        None
    | spec ->
        (* the third split: [check_faults] replays the first three *)
        let topo_rng = Rng.split rng in
        let edge_loss () = make_loss config.loss in
        let rate_bps = kbps (data_rate_kbps config.protocol) in
        let t =
          match spec with
          | Single_hop -> assert false
          | Star { leaves } ->
              Net.Topology.star ~engine ~rng:topo_rng ?obs ~loss:edge_loss
                ~rate_bps ~leaves ()
          | Chain { hops } ->
              Net.Topology.chain ~engine ~rng:topo_rng ?obs ~loss:edge_loss
                ~rate_bps ~hops ()
          | Kary_tree { arity; depth } ->
              Net.Topology.kary_tree ~engine ~rng:topo_rng ?obs
                ~loss:edge_loss ~rate_bps ~arity ~depth ()
          | Random_graph { nodes; edge_prob } ->
              Net.Topology.random_graph ~engine ~rng:topo_rng ?obs
                ~loss:edge_loss ~rate_bps ~nodes ~edge_prob ()
        in
        (if config.faults <> [] then
           let fault_rng = Rng.split rng in
           Net.Fault.install t
             (Net.Fault.compile ~rng:fault_rng ~until:config.duration t
                config.faults));
        Some t
  in
  let transport = Option.map Net.Topology.transport topo in
  let loss =
    match topo with None -> make_loss config.loss | Some _ -> Net.Loss.never
  in
  (* per-variant plumbing: how to read utilisation, the feedback
     counters and the network packet triple at the end of the run *)
  let no_counters () = (0, 0, 0, 0, 0, 0, 0, 0) in
  let add_stats (s, d, dr) st =
    ( s + st.Net.Link.Stats.fetched,
      d + st.Net.Link.Stats.delivered,
      dr + st.Net.Link.Stats.dropped )
  in
  let utilisation, counters, net =
    match config.protocol with
    | Open_loop { mu_data_kbps } ->
        let p =
          Open_loop.create ~base ~mu_data_bps:(kbps mu_data_kbps) ?obs
            ?transport ~loss ~link_rng ()
        in
        ( (fun ~now -> (Open_loop.unicast p).Net.Transport.u_utilisation ~now),
          no_counters,
          fun () ->
            add_stats (0, 0, 0) ((Open_loop.unicast p).Net.Transport.u_stats ())
        )
    | Two_queue { mu_hot_kbps; mu_cold_kbps } ->
        let p =
          Two_queue.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~sched:config.sched ?obs
            ?transport ~loss ~link_rng ()
        in
        ( (fun ~now -> (Two_queue.unicast p).Net.Transport.u_utilisation ~now),
          (fun () ->
            (Two_queue.sent_hot p, Two_queue.sent_cold p, 0, 0, 0, 0, 0, 0)),
          fun () ->
            add_stats (0, 0, 0) ((Two_queue.unicast p).Net.Transport.u_stats ())
        )
    | Feedback { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits; fb_lossy }
      ->
        let fb_loss =
          if fb_lossy && topo = None then make_loss config.loss
          else Net.Loss.never
        in
        let p =
          Feedback.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.sched ?obs ?transport ~nack_bits ~fb_loss ~loss
            ~link_rng ()
        in
        ( (fun ~now ->
            (Two_queue.unicast (Feedback.sender p)).Net.Transport.u_utilisation
              ~now),
          (fun () ->
            ( Two_queue.sent_hot (Feedback.sender p),
              Two_queue.sent_cold (Feedback.sender p),
              Feedback.nacks_sent p,
              Feedback.nacks_sent p,
              0,
              Feedback.nacks_delivered p,
              Feedback.nacks_dropped_overflow p,
              Feedback.reheats p )),
          fun () ->
            let acc =
              add_stats (0, 0, 0)
                ((Two_queue.unicast (Feedback.sender p)).Net.Transport.u_stats
                   ())
            in
            add_stats acc (Feedback.fb_stats p) )
    | Multicast
        { receivers = _; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
          suppression; nack_slot } ->
        (* each receiver gets an independent loss process built from
           the same spec; over a topology the per-link processes do
           the losing and the last hop is clean *)
        let receiver_loss _ =
          match topo with
          | None -> make_loss config.loss
          | Some _ -> Net.Loss.never
        in
        let p =
          Multicast.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.sched ?obs ?transport ~nack_bits ~suppression
            ~nack_slot ~receiver_loss ~link_rng ()
        in
        ( (fun ~now -> (Multicast.fanout p).Net.Transport.f_utilisation ~now),
          (fun () ->
            ( Two_queue.sent_hot (Multicast.sender p),
              Two_queue.sent_cold (Multicast.sender p),
              Multicast.nacks_wanted p,
              Multicast.nacks_sent p,
              Multicast.nacks_suppressed p,
              Multicast.nacks_delivered p,
              Multicast.nack_overflows p,
              Multicast.reheats p )),
          fun () ->
            let f = Multicast.fanout p in
            let served = f.Net.Transport.f_served () in
            let s, d, dr =
              match topo with
              | None ->
                  (* single-hop channel: each served packet is offered
                     to every subscriber through that subscriber's own
                     loss process, so one service completion stands
                     for [receivers] send-side events *)
                  let losses = ref 0 in
                  for sid = 0 to receivers - 1 do
                    losses := !losses + f.Net.Transport.f_receiver_losses sid
                  done;
                  let offers = served * receivers in
                  (offers, offers - !losses, !losses)
              | Some _ ->
                  (* the root server is lossless; per-edge processes
                     downstream do the losing (counted in the
                     substrate triple) *)
                  (served, served, 0)
            in
            add_stats (s, d, dr) (Multicast.fb_stats p) )
  in
  Base.start base;
  Engine.run ~until:config.duration engine;
  let now = Engine.now engine in
  let latency = Consistency.latency tracker in
  let ( sent_hot, sent_cold, nacks_wanted, nacks_sent, nacks_suppressed,
        nacks_delivered, nack_overflows, reheats ) =
    counters ()
  in
  (* Unified packet triple: head link(s) plus, in topology mode, every
     overlay edge stage. sent >= delivered + dropped; the slack is
     packets still in service at the horizon, and blackholed packets
     are counted separately in [fault_drops]. *)
  let packets_sent, packets_delivered, packets_dropped =
    let head = net () in
    match topo with
    | None -> head
    | Some t ->
        let s = Net.Topology.substrate t in
        let hs, hd, hdr = head in
        ( hs + s.Net.Topology.s_sent,
          hd + s.Net.Topology.s_delivered,
          hdr + s.Net.Topology.s_dropped )
  in
  { avg_consistency = Consistency.average tracker ~now;
    final_consistency = Consistency.instantaneous tracker;
    latency_mean = Stats.Welford.mean latency;
    latency_ci95 = Stats.Welford.confidence95 latency;
    deliveries = Stats.Welford.count latency;
    transmissions = Consistency.transmissions tracker;
    redundant_fraction = Consistency.redundancy tracker;
    sent_hot; sent_cold; nacks_wanted; nacks_sent; nacks_suppressed;
    nacks_delivered; nack_overflows; reheats;
    false_expiries = Base.false_expiries base;
    stale_purged = Base.stale_purged base;
    live_at_end = Table.live_count (Base.table base);
    utilisation = utilisation ~now;
    fault_transitions =
      (match topo with Some t -> Net.Topology.fault_transitions t | None -> 0);
    fault_drops =
      (match topo with Some t -> Net.Topology.fault_drops t | None -> 0);
    packets_sent;
    packets_delivered;
    packets_dropped;
    series = Consistency.series tracker }

(* ------------------------------------------------------------------ *)
(* Replicated runs across domains                                      *)

module Parallel = Softstate_sim.Parallel

type summary = {
  replications : int;
  consistency_mean : float;
  consistency_ci95 : float;
  final_consistency_mean : float;
  latency_mean : float;
  latency_ci95 : float;
  deliveries : int;
  transmissions : int;
  redundant_fraction_mean : float;
  utilisation_mean : float;
  sent_hot : int;
  sent_cold : int;
  nacks_sent : int;
  nacks_delivered : int;
  reheats : int;
  false_expiries : int;
  stale_purged : int;
}

(* Per-replication seeds are drawn sequentially from a chain seeded by
   the experiment seed, before any fan-out — so replication [i] sees
   the same seed whatever the job count. *)
let replication_seeds config n =
  let chain = Rng.create config.seed in
  Array.init n (fun _ ->
      Int64.to_int (Int64.shift_right_logical (Rng.bits64 chain) 1))

let summarise results =
  let n = Array.length results in
  if n = 0 then invalid_arg "Experiment.summarise: no results";
  let cons = Stats.Welford.create () in
  let lat = Stats.Welford.create () in
  let final = ref 0.0 and redundant = ref 0.0 and util = ref 0.0 in
  let deliveries = ref 0 and transmissions = ref 0 in
  let sent_hot = ref 0 and sent_cold = ref 0 in
  let nacks_sent = ref 0 and nacks_delivered = ref 0 in
  let reheats = ref 0 and false_expiries = ref 0 and stale_purged = ref 0 in
  Array.iter
    (fun r ->
      Stats.Welford.add cons r.avg_consistency;
      (* a replication with no deliveries has no latency sample *)
      if r.deliveries > 0 then Stats.Welford.add lat r.latency_mean;
      final := !final +. r.final_consistency;
      redundant := !redundant +. r.redundant_fraction;
      util := !util +. r.utilisation;
      deliveries := !deliveries + r.deliveries;
      transmissions := !transmissions + r.transmissions;
      sent_hot := !sent_hot + r.sent_hot;
      sent_cold := !sent_cold + r.sent_cold;
      nacks_sent := !nacks_sent + r.nacks_sent;
      nacks_delivered := !nacks_delivered + r.nacks_delivered;
      reheats := !reheats + r.reheats;
      false_expiries := !false_expiries + r.false_expiries;
      stale_purged := !stale_purged + r.stale_purged)
    results;
  let fn = float_of_int n in
  { replications = n;
    consistency_mean = Stats.Welford.mean cons;
    consistency_ci95 = Stats.Welford.confidence95 cons;
    final_consistency_mean = !final /. fn;
    latency_mean = Stats.Welford.mean lat;
    latency_ci95 = Stats.Welford.confidence95 lat;
    deliveries = !deliveries;
    transmissions = !transmissions;
    redundant_fraction_mean = !redundant /. fn;
    utilisation_mean = !util /. fn;
    sent_hot = !sent_hot;
    sent_cold = !sent_cold;
    nacks_sent = !nacks_sent;
    nacks_delivered = !nacks_delivered;
    reheats = !reheats;
    false_expiries = !false_expiries;
    stale_purged = !stale_purged }

let run_many ?(jobs = 1) ?domain_report ~replications config =
  if replications < 1 then
    invalid_arg "Experiment.run_many: replications must be positive";
  let seeds = replication_seeds config replications in
  let results =
    Parallel.map ~jobs ?report:domain_report replications (fun i ->
        (* each replication is self-contained: own seed, no obs
           context, no shared series buffers *)
        run
          { config with
            seed = seeds.(i); obs = None; record_series = false })
  in
  (summarise results, results)

let run_grid ?(jobs = 1) configs =
  let effective =
    if jobs <= 0 then Parallel.recommended_jobs () else jobs
  in
  let prepare c =
    (* an obs context is single-domain mutable state: detach it from
       configs that will run on helper domains *)
    if effective > 1 then { c with obs = None } else c
  in
  Parallel.map_list ~jobs configs (fun c -> run (prepare c))

let summary_report ~config s =
  let module R = Softstate_obs.Report in
  let run_rows =
    [ ("protocol", R.string (match config.protocol with
        | Open_loop _ -> "open-loop" | Two_queue _ -> "two-queue"
        | Feedback _ -> "feedback" | Multicast _ -> "multicast"));
      ("seed", R.int config.seed);
      ("replications", R.int s.replications);
      ("duration_s", R.float config.duration) ]
  in
  let rows =
    [ ("consistency_mean", R.float s.consistency_mean);
      ("consistency_ci95", R.float s.consistency_ci95);
      ("final_consistency_mean", R.float s.final_consistency_mean);
      ("latency_mean_s", R.float s.latency_mean);
      ("latency_ci95_s", R.float s.latency_ci95);
      ("deliveries", R.int s.deliveries);
      ("transmissions", R.int s.transmissions);
      ("redundant_fraction_mean", R.float s.redundant_fraction_mean);
      ("utilisation_mean", R.float s.utilisation_mean);
      ("nacks_sent", R.int s.nacks_sent);
      ("reheats", R.int s.reheats) ]
  in
  R.make ~name:"softstate-sim-replicated"
    [ R.section "run" run_rows; R.section "summary" rows ]

let protocol_name = function
  | Open_loop _ -> "open-loop"
  | Two_queue _ -> "two-queue"
  | Feedback _ -> "feedback"
  | Multicast _ -> "multicast"

let topology_name = function
  | Single_hop -> "single-hop"
  | Star { leaves } -> Printf.sprintf "star:%d" leaves
  | Chain { hops } -> Printf.sprintf "chain:%d" hops
  | Kary_tree { arity; depth } -> Printf.sprintf "tree:%d:%d" arity depth
  | Random_graph { nodes; edge_prob } ->
      Printf.sprintf "random:%d:%g" nodes edge_prob

let report ?obs ~config r =
  let module R = Softstate_obs.Report in
  let topo_rows =
    (* only surfaced for topology runs, so single-hop reports render
       exactly as before *)
    match config.topology with
    | Single_hop -> []
    | spec ->
        [ ("topology", R.string (topology_name spec));
          ("fault_transitions", R.int r.fault_transitions);
          ("fault_drops", R.int r.fault_drops) ]
  in
  let run_rows =
    [ ("protocol", R.string (protocol_name config.protocol));
      ("packets_sent", R.int r.packets_sent);
      ("packets_delivered", R.int r.packets_delivered);
      ("packets_dropped", R.int r.packets_dropped);
      ("seed", R.int config.seed);
      ("duration_s", R.float config.duration);
      ("lambda_kbps", R.float config.lambda_kbps);
      ("mean_loss", R.float (loss_mean config.loss)) ]
    @ topo_rows
  in
  let consistency_rows =
    [ ("average", R.float r.avg_consistency);
      ("final", R.float r.final_consistency);
      ("latency_mean_s", R.float r.latency_mean);
      ("latency_ci95_s", R.float r.latency_ci95);
      ("deliveries", R.int r.deliveries) ]
  in
  let traffic_rows =
    [ ("transmissions", R.int r.transmissions);
      ("redundant_fraction", R.float r.redundant_fraction);
      ("sent_hot", R.int r.sent_hot);
      ("sent_cold", R.int r.sent_cold);
      ("nacks_sent", R.int r.nacks_sent);
      ("nacks_delivered", R.int r.nacks_delivered);
      ("nack_overflows", R.int r.nack_overflows);
      ("reheats", R.int r.reheats);
      ("utilisation", R.float r.utilisation);
      ("live_at_end", R.int r.live_at_end) ]
  in
  let sections =
    [ R.section "run" run_rows;
      R.section "consistency" consistency_rows;
      R.section "traffic" traffic_rows ]
  in
  let sections =
    match obs with
    | None -> sections
    | Some o ->
        sections
        @ [ R.of_metrics (Softstate_obs.Obs.metrics o) ~now:config.duration ]
  in
  R.make ~name:"softstate-sim" sections

(* ------------------------------------------------------------------ *)
(* Gossip dissemination over the flat substrate.

   Reuses [topology_spec] vocabulary: [Single_hop] means uniform
   (complete-graph) mixing over [g_nodes] peers — the configuration
   the mean-field fluid limit describes exactly — while the graph
   kinds run over bare {!Softstate_net.Flat_topology} meshes, with
   none of {!Softstate_net.Topology}'s per-edge queues, which is what
   makes [random:1000000:p] populations feasible. *)

type gossip_config = {
  g_seed : int;
  g_topology : topology_spec;
  g_nodes : int;            (** population for [Single_hop] mixing *)
  g_mode : Gossip.mode;
  g_fanout : int;
  g_loss : float;           (** per-transmission Bernoulli loss *)
  g_round_period : float;
  g_max_rounds : int;
  g_initial : int;
  g_target : float;
}

let gossip_default =
  { g_seed = 1;
    g_topology = Single_hop;
    g_nodes = 1000;
    g_mode = Gossip.Push;
    g_fanout = 1;
    g_loss = 0.0;
    g_round_period = 1.0;
    g_max_rounds = 64;
    g_initial = 1;
    g_target = 1.0 }

let gossip_population cfg =
  match cfg.g_topology with
  | Single_hop -> cfg.g_nodes
  | Star { leaves } -> leaves + 1
  | Chain { hops } -> hops + 1
  | Kary_tree { arity; depth } ->
      let nodes = ref 1 and layer = ref 1 in
      for _ = 1 to depth do
        layer := !layer * arity;
        nodes := !nodes + !layer
      done;
      !nodes
  | Random_graph { nodes; _ } -> nodes

let gossip_protocol_config cfg =
  { Gossip.seed = cfg.g_seed;
    mode = cfg.g_mode;
    fanout = cfg.g_fanout;
    loss = cfg.g_loss;
    round_period = cfg.g_round_period;
    max_rounds = cfg.g_max_rounds;
    initial = cfg.g_initial;
    target_fraction = cfg.g_target }

let gossip_peers cfg =
  match cfg.g_topology with
  | Single_hop -> Gossip.Uniform cfg.g_nodes
  | spec ->
      (* structure stream split off the seed's root, so the builder's
         draws stay clear of the protocol stream *)
      Gossip.Mesh (flat_graph ~rng:(Rng.split (Rng.create cfg.g_seed)) spec)

let run_gossip ?obs cfg =
  let engine = Engine.create () in
  (match obs with
  | None -> ()
  | Some obs -> Softstate_obs.Engine_probe.attach ~obs engine);
  Gossip.run ?obs ~engine (gossip_protocol_config cfg) (gossip_peers cfg)

let fluid_gossip ?rounds cfg =
  Gossip.fluid ?rounds (gossip_protocol_config cfg)
    ~nodes:(gossip_population cfg)

let gossip_topology_name cfg =
  match cfg.g_topology with
  | Single_hop -> Printf.sprintf "uniform:%d" cfg.g_nodes
  | spec -> topology_name spec

(* First series time at which the infected fraction reaches [frac];
   nan if never. *)
let gossip_time_to (r : Gossip.result) frac =
  let t = ref nan in
  Array.iter
    (fun (time, c) -> if Float.is_nan !t && c >= frac then t := time)
    r.Gossip.series;
  !t

let gossip_report ?obs ~config (r : Gossip.result) =
  let module R = Softstate_obs.Report in
  let n = float_of_int r.Gossip.nodes in
  let run_rows =
    [ ("protocol", R.string ("gossip/" ^ Gossip.mode_name config.g_mode));
      ("peers", R.string (gossip_topology_name config));
      ("seed", R.int config.g_seed);
      ("nodes", R.int r.Gossip.nodes);
      ("fanout", R.int config.g_fanout);
      ("loss", R.float config.g_loss);
      ("round_period_s", R.float config.g_round_period) ]
  in
  let dissemination_rows =
    [ ("rounds", R.int r.Gossip.rounds);
      ("infected", R.int r.Gossip.infected);
      ("infected_fraction", R.float (float_of_int r.Gossip.infected /. n));
      ("time_to_half_s", R.float (gossip_time_to r 0.5));
      ("time_to_99pc_s", R.float (gossip_time_to r 0.99));
      ("digest", R.string r.Gossip.digest) ]
  in
  let traffic_rows =
    [ ("transmissions", R.int r.Gossip.transmissions);
      ("deliveries", R.int r.Gossip.deliveries);
      ("redundant", R.int r.Gossip.redundant);
      ("misses", R.int r.Gossip.misses);
      ("lost", R.int r.Gossip.lost);
      ("blackholed", R.int r.Gossip.blackholed) ]
  in
  let sections =
    [ R.section "run" run_rows;
      R.section "dissemination" dissemination_rows;
      R.section "traffic" traffic_rows ]
  in
  let sections =
    match obs with
    | None -> sections
    | Some o ->
        let now =
          match r.Gossip.series with
          | [||] -> 0.0
          | s -> fst s.(Array.length s - 1)
        in
        sections @ [ R.of_metrics (Softstate_obs.Obs.metrics o) ~now ]
  in
  R.make ~name:"softstate-gossip" sections
