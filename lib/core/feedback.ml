module Net = Softstate_net
module Rng = Softstate_util.Rng
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace

type nack = { missing_seq : int }

type t = {
  base : Base.t;
  sender : Two_queue.t;
  seq_to_key : Seq_ring.t;
  nack_bits : int;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  mutable fb_outbox : nack Net.Transport.outbox option;
  mutable expected_seq : int;
  mutable nacks_sent : int;
  mutable nacks_delivered : int;
  mutable reheats : int;
}

let seq_window = 1 lsl 16

let on_nack t ~now nack =
  t.nacks_delivered <- t.nacks_delivered + 1;
  match Seq_ring.find t.seq_to_key nack.missing_seq with
  | None -> ()
  | Some key ->
      if Two_queue.reheat t.sender ~now ~cause:nack.missing_seq key then
        t.reheats <- t.reheats + 1

let receiver_deliver t ~now (ann : Base.announcement) =
  (* Gap detection: the data link is FIFO with a fixed delay, so any
     skipped sequence number is a loss, never reordering. *)
  if ann.Base.seq > t.expected_seq then begin
    for missing = t.expected_seq to ann.Base.seq - 1 do
      t.nacks_sent <- t.nacks_sent + 1;
      if t.traced then begin
        let key =
          match Seq_ring.find t.seq_to_key missing with
          | Some k -> k
          | None -> Trace.no_id
        in
        Trace.emit t.trace
          (Trace.event ~time:now ~src:"feedback"
             ~detail:(string_of_int missing) ~key ~packet:missing
             ~parent:ann.Base.seq Trace.Nack)
      end;
      match t.fb_outbox with
      | Some ob ->
          ignore
            (ob.Net.Transport.o_send
               (Net.Packet.make ~size_bits:t.nack_bits { missing_seq = missing }))
      | None -> ()
    done
  end;
  if ann.Base.seq >= t.expected_seq then t.expected_seq <- ann.Base.seq + 1;
  Base.deliver t.base ~now ~receiver:0 ann

let create ~base ~mu_hot_bps ~mu_cold_bps ~mu_fb_bps ?sched ?obs ?transport
    ?(nack_bits = 256) ?(fb_loss = Net.Loss.never) ~loss ~link_rng () =
  if mu_fb_bps <= 0.0 then
    invalid_arg "Feedback.create: feedback rate must be positive";
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs (Base.engine base)
  in
  let sched_rng = Rng.split link_rng in
  let fb_rng = Rng.split link_rng in
  let sender =
    Two_queue.create_queues ~base ~mu_hot_bps ~mu_cold_bps ?sched ?obs
      ~sched_rng ()
  in
  let t =
    { base; sender;
      seq_to_key = Seq_ring.create ~window:seq_window;
      nack_bits;
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      fb_outbox = None; expected_seq = 0; nacks_sent = 0; nacks_delivered = 0;
      reheats = 0 }
  in
  let fetch () =
    match Two_queue.fetch_packet sender with
    | None -> None
    | Some packet as fetched ->
        let ann = packet.Net.Packet.payload in
        Seq_ring.store t.seq_to_key ~seq:ann.Base.seq ~key:ann.Base.key;
        fetched
  in
  let unicast =
    transport.Net.Transport.unicast
      ~rate_bps:(mu_hot_bps +. mu_cold_bps)
      ~loss
      ~on_served:(fun ~now packet ->
        Two_queue.serve_completion sender ~now
          packet.Net.Packet.payload.Base.key)
      ~label:"feedback.data"
      ~rng:link_rng ~fetch
      ~deliver:(fun ~now ann -> receiver_deliver t ~now ann)
      ()
  in
  Two_queue.attach_unicast sender unicast;
  let outbox =
    transport.Net.Transport.outbox ~rate_bps:mu_fb_bps ~loss:fb_loss
      ~label:"feedback.fb" ~rng:fb_rng
      ~deliver:(fun ~now nack -> on_nack t ~now nack)
      ()
  in
  t.fb_outbox <- Some outbox;
  t

let sender t = t.sender
let nacks_sent t = t.nacks_sent
let nacks_delivered t = t.nacks_delivered

let nacks_dropped_overflow t =
  match t.fb_outbox with
  | Some ob -> ob.Net.Transport.o_overflows ()
  | None -> 0

let fb_stats t =
  match t.fb_outbox with
  | Some ob -> ob.Net.Transport.o_stats ()
  | None ->
      { Net.Link.Stats.fetched = 0; delivered = 0; dropped = 0;
        bits_served = 0.0; busy_time = 0.0 }

let reheats t = t.reheats
