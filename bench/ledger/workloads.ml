(* The five ledger workloads: how each is built, run with tracing off
   and with spans on, set up on its own, and checked.

   Each run returns the program's result as exact text fields (floats
   in hexadecimal), so two runs compare field for field and a digest
   over the fields stands for the whole result. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Stats = Softstate_util.Stats
module Net = Softstate_net
module Core = Softstate_core
module E = Core.Experiment
module Base = Core.Base
module Gossip = Core.Gossip
module Session = Sstp.Session

type outcome = {
  fields : (string * string) list;
  sim_s : float;           (* simulated seconds covered *)
  packets : int;           (* packets (gossip: contacts) simulated *)
  consistency : float;     (* time-averaged c; gossip: final informed share *)
  checks : (string * bool) list;
  counts : (string * float) list;  (* program-reported per-layer numbers *)
}

let hex x = Printf.sprintf "%h" x
let digest o =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) o.fields)))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let finite x = if Float.is_nan x then 0.0 else x

(* ------------------------------------------------------------------ *)
(* Sizes. [scale] multiplies run length: 1.0 is the standard size (a
   run of about 2 s on a 2-core x86-64 host), 0.1 the quick smoke. *)

let feedback_duration = 30_000.0
let sweep_duration = 8_000.0
let multicast_duration = 1_800.0
let sstp_duration = 480.0
let gossip_nodes = 100_000
let gossip_rumours = 6

let rumours scale = max 1 (int_of_float (Float.round (float_of_int gossip_rumours *. scale)))

(* Below the quick size the graph shrinks too, so unit tests stay fast. *)
let nodes scale =
  if scale >= 0.1 then gossip_nodes
  else max 1_000 (int_of_float (float_of_int gossip_nodes *. scale *. 10.0))

(* ------------------------------------------------------------------ *)
(* Experiment workloads *)

let feedback_config ~seed ~duration =
  { E.default with
    seed; duration;
    expiry = Base.Refresh_wheel { multiple = 3.0 };
    loss = E.Bernoulli 0.3;
    protocol =
      E.Feedback
        { mu_hot_kbps = 28.8; mu_cold_kbps = 7.2; mu_fb_kbps = 9.0;
          nack_bits = 500; fb_lossy = true } }

let sweep_config ~seed ~duration =
  { E.default with
    seed; duration;
    expiry = Base.Refresh_timeout { multiple = 3.0; sweep_period = 1.0 };
    loss = E.Bernoulli 0.3;
    protocol = E.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 } }

let multicast_config ~seed ~duration =
  { E.default with
    seed; duration;
    loss = E.Bernoulli 0.05;
    protocol =
      E.Multicast
        { receivers = 16; mu_hot_kbps = 24.0; mu_cold_kbps = 10.0;
          mu_fb_kbps = 11.0; nack_bits = 500; suppression = true;
          nack_slot = 0.5 };
    topology = E.Kary_tree { arity = 4; depth = 3 } }

let experiment_outcome (config : E.config) (r : E.result) =
  let fields =
    [ ("avg_consistency", hex r.avg_consistency);
      ("final_consistency", hex r.final_consistency);
      ("latency_mean", hex r.latency_mean);
      ("latency_ci95", hex r.latency_ci95);
      ("deliveries", string_of_int r.deliveries);
      ("transmissions", string_of_int r.transmissions);
      ("redundant_fraction", hex r.redundant_fraction);
      ("sent_hot", string_of_int r.sent_hot);
      ("sent_cold", string_of_int r.sent_cold);
      ("nacks_wanted", string_of_int r.nacks_wanted);
      ("nacks_sent", string_of_int r.nacks_sent);
      ("nacks_suppressed", string_of_int r.nacks_suppressed);
      ("nacks_delivered", string_of_int r.nacks_delivered);
      ("nack_overflows", string_of_int r.nack_overflows);
      ("reheats", string_of_int r.reheats);
      ("false_expiries", string_of_int r.false_expiries);
      ("stale_purged", string_of_int r.stale_purged);
      ("live_at_end", string_of_int r.live_at_end);
      ("utilisation", hex r.utilisation);
      ("fault_transitions", string_of_int r.fault_transitions);
      ("fault_drops", string_of_int r.fault_drops);
      ("packets_sent", string_of_int r.packets_sent);
      ("packets_delivered", string_of_int r.packets_delivered);
      ("packets_dropped", string_of_int r.packets_dropped) ]
  in
  { fields;
    sim_s = config.duration;
    packets = r.packets_sent;
    consistency = r.avg_consistency;
    checks =
      [ ( "packets sent >= delivered + dropped",
          r.packets_sent >= r.packets_delivered + r.packets_dropped ) ];
    counts =
      [ ("net.loss_ratio", ratio r.packets_dropped r.packets_sent);
        ("net.packets_sent", float_of_int r.packets_sent);
        ("core.redundant_fraction", finite r.redundant_fraction);
        ("core.transmissions", float_of_int r.transmissions);
        ("core.nack_repair_ratio", ratio r.reheats r.nacks_delivered);
        ("core.nacks_delivered", float_of_int r.nacks_delivered);
        ("core.nack_suppressed_ratio",
          ratio r.nacks_suppressed r.nacks_wanted);
        ("core.nacks_wanted", float_of_int r.nacks_wanted);
        ("core.false_expiries", float_of_int r.false_expiries);
        ("core.stale_purged", float_of_int r.stale_purged) ] }

(* Span kinds of the traced run; [Wrap.kinds] indexes this array. *)
let span_names =
  [| "core.fetch"; "core.served"; "core.deliver"; "core.nack_in";
     "sstp.fetch"; "sstp.deliver"; "sstp.feedback_in"; "sstp.publish";
     "net.kick"; "net.send" |]

let kind name =
  let rec find i =
    if i >= Array.length span_names then invalid_arg ("no span " ^ name)
    else if span_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let core_kinds =
  { Wrap.fetch = kind "core.fetch"; served = kind "core.served";
    deliver = kind "core.deliver"; inbox = kind "core.nack_in";
    kick = kind "net.kick"; send = kind "net.send" }

(* A session hands its transport no on_served hook, so [served] is
   never entered. *)
let sstp_kinds =
  { Wrap.fetch = kind "sstp.fetch"; served = kind "sstp.fetch";
    deliver = kind "sstp.deliver"; inbox = kind "sstp.feedback_in";
    kick = kind "net.kick"; send = kind "net.send" }

let publish_kind = kind "sstp.publish"

(* [Experiment.run] rebuilt from the same public constructors, in the
   same order (so every generator is split identically), with the
   transport wrapped in spans and the step hook on the engine. Covers
   the protocols and topologies the ledger's workloads use. *)
let experiment_traced sp (config : E.config) =
  let kbps x = x *. 1000.0 in
  let receivers =
    match config.protocol with E.Multicast { receivers; _ } -> receivers | _ -> 1
  in
  let engine = Engine.create () in
  Engine.on_step engine (fun _ -> Span.step sp);
  let rng = Rng.create config.seed in
  let workload =
    Core.Workload.of_kbps ~update_fraction:config.update_fraction
      ~shape:config.arrival ~lambda_kbps:config.lambda_kbps
      ~size_bits:config.size_bits ()
  in
  let tracker =
    Core.Consistency.create ~empty_policy:config.empty_policy
      ~record_series:false ~receivers ~now:0.0 ()
  in
  let base =
    Base.create ~engine ~rng:(Rng.split rng) ~workload ~death:config.death
      ~expiry:config.expiry ~receivers ~tracker ()
  in
  let link_rng = Rng.split rng in
  let data_kbps =
    match config.protocol with
    | E.Two_queue { mu_hot_kbps; mu_cold_kbps }
    | E.Feedback { mu_hot_kbps; mu_cold_kbps; _ }
    | E.Multicast { mu_hot_kbps; mu_cold_kbps; _ } ->
        mu_hot_kbps +. mu_cold_kbps
    | E.Open_loop _ -> invalid_arg "experiment_traced: open loop"
  in
  let topo =
    match config.topology with
    | E.Single_hop -> None
    | E.Kary_tree { arity; depth } ->
        Some
          (Net.Topology.kary_tree ~engine ~rng:(Rng.split rng)
             ~loss:(fun () -> E.make_loss config.loss)
             ~rate_bps:(kbps data_kbps) ~arity ~depth ())
    | _ -> invalid_arg "experiment_traced: topology"
  in
  let inner =
    match topo with
    | None -> Net.Transport.single_hop engine
    | Some t -> Net.Topology.transport t
  in
  let transport = Wrap.transport sp core_kinds inner in
  let loss =
    match topo with None -> E.make_loss config.loss | Some _ -> Net.Loss.never
  in
  let add (s, d, dr) st =
    ( s + st.Net.Link.Stats.fetched,
      d + st.Net.Link.Stats.delivered,
      dr + st.Net.Link.Stats.dropped )
  in
  let utilisation, counters, net =
    match config.protocol with
    | E.Two_queue { mu_hot_kbps; mu_cold_kbps } ->
        let p =
          Core.Two_queue.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~sched:config.sched ~transport
            ~loss ~link_rng ()
        in
        let u = Core.Two_queue.unicast p in
        ( (fun ~now -> u.Net.Transport.u_utilisation ~now),
          (fun () ->
            ( Core.Two_queue.sent_hot p, Core.Two_queue.sent_cold p,
              0, 0, 0, 0, 0, 0 )),
          fun () -> add (0, 0, 0) (u.Net.Transport.u_stats ()) )
    | E.Feedback { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits; fb_lossy }
      ->
        let fb_loss =
          if fb_lossy && topo = None then E.make_loss config.loss
          else Net.Loss.never
        in
        let p =
          Core.Feedback.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.sched ~transport ~nack_bits ~fb_loss ~loss ~link_rng
            ()
        in
        let s = Core.Feedback.sender p in
        let u = Core.Two_queue.unicast s in
        ( (fun ~now -> u.Net.Transport.u_utilisation ~now),
          (fun () ->
            ( Core.Two_queue.sent_hot s, Core.Two_queue.sent_cold s,
              Core.Feedback.nacks_sent p, Core.Feedback.nacks_sent p, 0,
              Core.Feedback.nacks_delivered p,
              Core.Feedback.nacks_dropped_overflow p, Core.Feedback.reheats p
            )),
          fun () ->
            add (add (0, 0, 0) (u.Net.Transport.u_stats ()))
              (Core.Feedback.fb_stats p) )
    | E.Multicast
        { receivers = _; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
          suppression; nack_slot } ->
        let receiver_loss _ =
          match topo with
          | None -> E.make_loss config.loss
          | Some _ -> Net.Loss.never
        in
        let p =
          Core.Multicast.create ~base ~mu_hot_bps:(kbps mu_hot_kbps)
            ~mu_cold_bps:(kbps mu_cold_kbps) ~mu_fb_bps:(kbps mu_fb_kbps)
            ~sched:config.sched ~transport ~nack_bits ~suppression ~nack_slot
            ~receiver_loss ~link_rng ()
        in
        let s = Core.Multicast.sender p in
        let f = Core.Multicast.fanout p in
        ( (fun ~now -> f.Net.Transport.f_utilisation ~now),
          (fun () ->
            ( Core.Two_queue.sent_hot s, Core.Two_queue.sent_cold s,
              Core.Multicast.nacks_wanted p, Core.Multicast.nacks_sent p,
              Core.Multicast.nacks_suppressed p,
              Core.Multicast.nacks_delivered p,
              Core.Multicast.nack_overflows p, Core.Multicast.reheats p )),
          fun () ->
            let served = f.Net.Transport.f_served () in
            let head =
              match topo with
              | None ->
                  let losses = ref 0 in
                  for sid = 0 to receivers - 1 do
                    losses := !losses + f.Net.Transport.f_receiver_losses sid
                  done;
                  let offers = served * receivers in
                  (offers, offers - !losses, !losses)
              | Some _ -> (served, served, 0)
            in
            add head (Core.Multicast.fb_stats p) )
    | E.Open_loop _ -> assert false
  in
  Base.start base;
  Span.arm sp;
  Engine.run ~until:config.duration engine;
  Span.disarm sp;
  let now = Engine.now engine in
  let latency = Core.Consistency.latency tracker in
  let ( sent_hot, sent_cold, nacks_wanted, nacks_sent, nacks_suppressed,
        nacks_delivered, nack_overflows, reheats ) =
    counters ()
  in
  let packets_sent, packets_delivered, packets_dropped =
    let hs, hd, hdr = net () in
    match topo with
    | None -> (hs, hd, hdr)
    | Some t ->
        let s = Net.Topology.substrate t in
        ( hs + s.Net.Topology.s_sent,
          hd + s.Net.Topology.s_delivered,
          hdr + s.Net.Topology.s_dropped )
  in
  let r =
    { E.avg_consistency = Core.Consistency.average tracker ~now;
      final_consistency = Core.Consistency.instantaneous tracker;
      latency_mean = Stats.Welford.mean latency;
      latency_ci95 = Stats.Welford.confidence95 latency;
      deliveries = Stats.Welford.count latency;
      transmissions = Core.Consistency.transmissions tracker;
      redundant_fraction = Core.Consistency.redundancy tracker;
      sent_hot; sent_cold; nacks_wanted; nacks_sent; nacks_suppressed;
      nacks_delivered; nack_overflows; reheats;
      false_expiries = Base.false_expiries base;
      stale_purged = Base.stale_purged base;
      live_at_end = Core.Table.live_count (Base.table base);
      utilisation = utilisation ~now;
      fault_transitions =
        (match topo with Some t -> Net.Topology.fault_transitions t | None -> 0);
      fault_drops =
        (match topo with Some t -> Net.Topology.fault_drops t | None -> 0);
      packets_sent; packets_delivered; packets_dropped;
      series = [] }
  in
  (experiment_outcome config r, Engine.high_water engine)

(* ------------------------------------------------------------------ *)
(* SSTP churn: a 2000-leaf store published at t = 0, then one random
   leaf rewritten every 50 ms by a bench-side ticker. *)

let sstp_leaves = 2000
let sstp_groups = 200
let leaf_path i = Printf.sprintf "db/g%03d/k%04d" (i mod sstp_groups) i

let payload version i =
  let s = Printf.sprintf "v%d:k%d:" version i in
  s ^ String.make (120 - String.length s) 'x'

let sstp_config () =
  { (Session.default_config ~mu_total_bps:512_000.0) with
    Session.loss = Net.Loss.bernoulli 0.1;
    summary_period = 0.25;
    repair_timeout = 1.0 }

(* Everything up to the first event. With [sp], the transport and the
   ticker's publishes are spanned. *)
let sstp_build ?sp ~seed () =
  let engine = Engine.create () in
  let transport =
    Option.map
      (fun sp -> Wrap.transport sp sstp_kinds (Net.Transport.single_hop engine))
      sp
  in
  let rng = Rng.create seed in
  let session =
    Session.create ?transport ~engine ~rng ~config:(sstp_config ()) ()
  in
  Session.track_consistency session ~period:1.0;
  for i = 0 to sstp_leaves - 1 do
    Session.publish session ~path:(leaf_path i) ~payload:(payload 0 i)
  done;
  let ticker_rng = Rng.split rng in
  let version = ref 0 in
  let publish =
    match sp with
    | None -> Session.publish session
    | Some sp ->
        fun ~path ~payload ->
          Span.enter sp publish_kind;
          Session.publish session ~path ~payload;
          Span.leave sp
  in
  let (_ : unit -> bool) =
    Engine.every engine ~period:0.05 (fun _ ->
        incr version;
        let i = Rng.int ticker_rng sstp_leaves in
        publish ~path:(leaf_path i) ~payload:(payload !version i))
  in
  (engine, session, version)

let sstp_run ?sp ~seed ~duration () =
  let engine, session, version = sstp_build ?sp ~seed () in
  Option.iter
    (fun sp ->
      Engine.on_step engine (fun _ -> Span.step sp);
      Span.arm sp)
    sp;
  Engine.run ~until:duration engine;
  Option.iter Span.disarm sp;
  let sender = Session.sender session and receiver = Session.receiver session in
  let data = Session.data_packets session
  and fb = Session.feedback_packets session in
  let sent =
    Sstp.Sender.sent_data sender + Sstp.Sender.sent_summaries sender
    + Sstp.Sender.sent_signatures sender
  in
  let received = Sstp.Receiver.packets_received receiver in
  let root_s, root_r = Session.root_digests session in
  let c = Session.average_consistency session in
  let fields =
    [ ("average_consistency", hex c);
      ("data_packets", string_of_int data);
      ("feedback_packets", string_of_int fb);
      ("sent_data", string_of_int (Sstp.Sender.sent_data sender));
      ("sent_summaries", string_of_int (Sstp.Sender.sent_summaries sender));
      ("sent_signatures", string_of_int (Sstp.Sender.sent_signatures sender));
      ("nacks_sent", string_of_int (Sstp.Receiver.nacks_sent receiver));
      ("queries_sent", string_of_int (Sstp.Receiver.queries_sent receiver));
      ("reports_sent", string_of_int (Sstp.Receiver.reports_sent receiver));
      ("packets_received", string_of_int received);
      ("updates", string_of_int !version);
      ("root_sender", root_s);
      ("root_receiver", root_r) ]
  in
  ( { fields;
      sim_s = duration;
      packets = data + fb;
      consistency = c;
      checks =
        [ ("envelopes sent >= delivered", sent >= data);
          ("every delivered envelope handled", received = data) ];
      counts =
        [ ("net.loss_ratio", ratio (sent - data) sent);
          ("net.packets_sent", float_of_int sent);
          ("sstp.feedback_share", ratio fb (data + fb));
          ("sstp.packets", float_of_int (data + fb)) ] },
    Engine.high_water engine )

(* ------------------------------------------------------------------ *)
(* Gossip over the flat substrate: one random graph of mean degree
   about 4, then push-pull rumours with fanout 2 seeded s, s+1, ... *)

let gossip_graph ~seed ~nodes =
  Net.Flat_topology.random
    ~rng:(Rng.split (Rng.create seed))
    ~nodes
    ~edge_prob:(2.0 /. float_of_int nodes)
    ()

let gossip_config seed =
  { Gossip.default with
    seed; mode = Gossip.Push_pull; fanout = 2; max_rounds = 64;
    target_fraction = 1.0 }

let gossip_run ?sp ~seed ~nodes ~rumours () =
  let t0 = Clock.now_ns () in
  let graph = gossip_graph ~seed ~nodes in
  let build_ns = Clock.now_ns () - t0 in
  Option.iter Span.arm sp;
  let high_water = ref 0 in
  let results =
    List.init rumours (fun i ->
        let engine = Engine.create () in
        Option.iter (fun sp -> Engine.on_step engine (fun _ -> Span.step sp)) sp;
        let r = Gossip.run ~engine (gossip_config (seed + i)) (Gossip.Mesh graph) in
        high_water := max !high_water (Engine.high_water engine);
        r)
  in
  Option.iter Span.disarm sp;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let contacts = sum (fun r -> r.Gossip.transmissions) in
  let redundant = sum (fun r -> r.Gossip.redundant) in
  let rounds = sum (fun r -> r.Gossip.rounds) in
  let fields =
    List.concat
      (List.mapi
         (fun i (r : Gossip.result) ->
           let f k v = (Printf.sprintf "rumour%d.%s" i k, v) in
           [ f "rounds" (string_of_int r.rounds);
             f "infected" (string_of_int r.infected);
             f "transmissions" (string_of_int r.transmissions);
             f "deliveries" (string_of_int r.deliveries);
             f "redundant" (string_of_int r.redundant);
             f "misses" (string_of_int r.misses);
             f "lost" (string_of_int r.lost);
             f "blackholed" (string_of_int r.blackholed);
             f "digest" r.digest ])
         results)
  in
  let c = ratio (sum (fun r -> r.Gossip.infected)) (nodes * rumours) in
  ( { fields;
      sim_s = float_of_int rounds *. (gossip_config seed).Gossip.round_period;
      packets = contacts;
      consistency = c;
      checks =
        [ ( "contacts = deliveries + redundant + misses + lost + blackholed",
            List.for_all
              (fun (r : Gossip.result) ->
                r.transmissions
                = r.deliveries + r.redundant + r.misses + r.lost + r.blackholed)
              results );
          ( "every node informed",
            List.for_all
              (fun (r : Gossip.result) ->
                r.infected = nodes && r.infected = 1 + r.deliveries)
              results ) ];
      counts =
        [ ("net.loss_ratio",
            ratio (sum (fun r -> r.Gossip.lost + r.Gossip.blackholed)) contacts);
          ("net.packets_sent", float_of_int contacts);
          ("gossip.redundant_ratio", ratio redundant contacts);
          ("gossip.contacts", float_of_int contacts);
          ("gossip.rounds", float_of_int rounds);
          ("net.flat_build_s", Clock.seconds build_ns);
          ("net.flat_words_per_node",
            ratio (Net.Flat_topology.footprint_words graph) nodes) ] },
    !high_water )

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let experiment_config name ~seed ~scale =
  match name with
  | "unicast-feedback" ->
      Some (feedback_config ~seed ~duration:(scale *. feedback_duration))
  | "unicast-sweep" ->
      Some (sweep_config ~seed ~duration:(scale *. sweep_duration))
  | "multicast-tree" ->
      Some (multicast_config ~seed ~duration:(scale *. multicast_duration))
  | _ -> None

(* The run users see: tracing off, public entry points only. *)
let run name ~seed ~scale =
  match experiment_config name ~seed ~scale with
  | Some config -> experiment_outcome config (E.run config)
  | None -> (
      match name with
      | "sstp-churn" ->
          fst (sstp_run ~seed ~duration:(scale *. sstp_duration) ())
      | "gossip-flat" ->
          fst
            (gossip_run ~seed ~nodes:(nodes scale) ~rumours:(rumours scale) ())
      | _ -> invalid_arg ("unknown workload " ^ name))

let run_traced sp name ~seed ~scale =
  match experiment_config name ~seed ~scale with
  | Some config -> experiment_traced sp config
  | None -> (
      match name with
      | "sstp-churn" ->
          sstp_run ~sp ~seed ~duration:(scale *. sstp_duration) ()
      | "gossip-flat" ->
          gossip_run ~sp ~seed ~nodes:(nodes scale) ~rumours:(rumours scale) ()
      | _ -> invalid_arg ("unknown workload " ^ name))

(* Set-up alone, as (repetitions, one set-up): an Experiment run of the
   same config for 1e-6 simulated seconds; SSTP up to its first event;
   the gossip graph build. *)
let setup name ~seed ~scale =
  match experiment_config name ~seed ~scale with
  | Some config -> (51, fun () -> ignore (E.run { config with duration = 1e-6 }))
  | None -> (
      match name with
      | "sstp-churn" -> (5, fun () -> ignore (sstp_build ~seed ()))
      | "gossip-flat" ->
          (5, fun () -> ignore (gossip_graph ~seed ~nodes:(nodes scale)))
      | _ -> invalid_arg ("unknown workload " ^ name))
