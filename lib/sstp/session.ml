module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Rng = Softstate_util.Rng
module Stats = Softstate_util.Stats
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics

type reliability =
  | Announce_only
  | Manual of { mu_hot_bps : float; mu_cold_bps : float; mu_fb_bps : float }

type config = {
  mu_total_bps : float;
  loss : Net.Loss.t;
  fb_loss : Net.Loss.t;
  delay : float;
  reliability : reliability;
  summary_period : float;
  repair_timeout : float;
  report_period : float;
}

let default_config ~mu_total_bps =
  { mu_total_bps;
    loss = Net.Loss.never;
    fb_loss = Net.Loss.never;
    delay = 0.0;
    reliability =
      Manual
        { mu_hot_bps = 0.60 *. mu_total_bps;
          mu_cold_bps = 0.25 *. mu_total_bps;
          mu_fb_bps = 0.15 *. mu_total_bps };
    summary_period = 1.0;
    repair_timeout = 2.0;
    report_period = 5.0 }

type t = {
  engine : Engine.t;
  sender : Sender.t;
  receiver : Receiver.t;
  unicast : Net.Transport.unicast;
  fb_outbox : Wire.msg Net.Transport.outbox option;
  tracker : Stats.Timeweighted.t;
  mutable tracking : bool;
}

(* Canonical counter readings; exposed both as accessors and, when an
   observability context is supplied, as [session.*] registry probes
   (the probes and the accessors share these, so they can never
   disagree). *)
let data_packets t =
  (t.unicast.Net.Transport.u_stats ()).Net.Link.Stats.delivered

let link_utilisation t =
  t.unicast.Net.Transport.u_utilisation ~now:(Engine.now t.engine)

let feedback_packets t =
  match t.fb_outbox with
  | Some ob -> (ob.Net.Transport.o_stats ()).Net.Link.Stats.delivered
  | None -> 0

let consistency t =
  let total, matching =
    Namespace.matching_leaves (Sender.namespace t.sender)
      (Receiver.namespace t.receiver)
  in
  if total = 0 then 1.0 else float_of_int matching /. float_of_int total

let register_session_probes t obs =
  match obs with
  | None -> ()
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m "session.data_packets" (fun ~now:_ ->
          float_of_int (data_packets t));
      Metrics.probe m "session.feedback_packets" (fun ~now:_ ->
          float_of_int (feedback_packets t));
      Metrics.probe m "session.link_utilisation" (fun ~now ->
          t.unicast.Net.Transport.u_utilisation ~now);
      Metrics.probe m "session.consistency" (fun ~now:_ -> consistency t)

let splits config =
  match config.reliability with
  | Manual { mu_hot_bps; mu_cold_bps; mu_fb_bps } ->
      (mu_hot_bps, mu_cold_bps, mu_fb_bps)
  | Announce_only ->
      (0.7 *. config.mu_total_bps, 0.3 *. config.mu_total_bps, 0.0)

let create ?obs ?transport ~engine ~rng ~config () =
  if not (config.mu_total_bps > 0.0 && Float.is_finite config.mu_total_bps)
  then invalid_arg "Session.create: bandwidth must be positive and finite";
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs engine
  in
  let mu_hot, mu_cold, mu_fb = splits config in
  let sender_config =
    { Sender.summary_period = config.summary_period;
      mu_hot_bps = mu_hot;
      mu_cold_bps = mu_cold }
  in
  let sender = Sender.create ?obs ~engine ~config:sender_config () in
  let link_rng = Rng.split rng in
  let fb_rng = Rng.split rng in
  (* Forward references broken with a ref cell: the receiver's
     feedback closure targets the outbox, the outbox's deliver targets
     the sender, the data channel's fetch targets the sender and its
     deliver the receiver. *)
  let outbox_cell = ref None in
  let size_bits = Wire.sizer () in
  let send_feedback msg =
    match !outbox_cell with
    | Some ob ->
        ignore
          (ob.Net.Transport.o_send
             (Net.Packet.make
                ~size_bits:(size_bits { Wire.seq = 0; sent_at = 0.0; msg })
                msg))
    | None -> ()
  in
  let receiver_config =
    { Receiver.repair_timeout = config.repair_timeout;
      report_period = config.report_period;
      max_repair_retries = 32 }
  in
  let receiver =
    Receiver.create ?obs ~engine ~config:receiver_config ~send_feedback ()
  in
  let fetch () = Sender.fetch sender ~now:(Engine.now engine) in
  let unicast =
    transport.Net.Transport.unicast
      ~rate_bps:(mu_hot +. mu_cold)
      ~delay:config.delay ~loss:config.loss ~label:"session.data"
      ~rng:link_rng ~fetch
      ~deliver:(fun ~now env -> Receiver.handle receiver ~now env)
      ()
  in
  let fb_outbox =
    if mu_fb > 0.0 then
      Some
        (transport.Net.Transport.outbox ~rate_bps:mu_fb ~delay:config.delay
           ~loss:config.fb_loss ~label:"session.fb" ~rng:fb_rng
           ~deliver:(fun ~now msg -> Sender.handle_feedback sender ~now msg)
           ())
    else None
  in
  outbox_cell := fb_outbox;
  (* The cold summary timer must re-kick the channel when it idles. *)
  let (_ : unit -> bool) =
    Engine.every engine ~period:config.summary_period (fun _ ->
        unicast.Net.Transport.u_kick ())
  in
  let t =
    { engine; sender; receiver; unicast; fb_outbox;
      tracker = Stats.Timeweighted.create ();
      tracking = false }
  in
  register_session_probes t obs;
  t

let sender t = t.sender
let receiver t = t.receiver

let kick t = t.unicast.Net.Transport.u_kick ()

let publish t ~path ~payload =
  Sender.publish t.sender ~path:(Path.of_string path) ~payload ();
  kick t

let remove t ~path =
  Sender.remove t.sender ~path:(Path.of_string path);
  kick t

let converged t =
  String.equal
    (Namespace.root_digest (Sender.namespace t.sender))
    (Namespace.root_digest (Receiver.namespace t.receiver))

let root_digests t =
  ( Digest.to_hex (Namespace.root_digest (Sender.namespace t.sender)),
    Digest.to_hex (Namespace.root_digest (Receiver.namespace t.receiver)) )

let track_consistency t ~period =
  if not t.tracking then begin
    t.tracking <- true;
    let (_ : unit -> bool) =
      Engine.every t.engine ~period (fun engine ->
          Stats.Timeweighted.update t.tracker ~now:(Engine.now engine)
            ~value:(consistency t))
    in
    ()
  end

let average_consistency t =
  Stats.Timeweighted.average t.tracker ~now:(Engine.now t.engine)
