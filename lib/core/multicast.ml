module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace

type nack = { missing_seq : int; origin : int }

(* Sequence numbers are consecutive ints, so the identity spreads them
   evenly over the buckets; no generic hash or compare per lookup. *)
module Seq_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash seq = seq
end)

type receiver_state = {
  index : int;
  mutable expected_seq : int;
}

type t = {
  base : Base.t;
  sender : Two_queue.t;
  seq_to_key : Seq_ring.t;
  nack_bits : int;
  suppression : bool;
  nack_slot : float;
  slot_rng : Rng.t;
  (* seq -> time a NACK for it was last heard on the feedback channel;
     receivers use it for damping, and it doubles as the prune clock *)
  heard : float Seq_tbl.t;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  mutable fb_outbox : nack Net.Transport.outbox option;
  mutable fanout : Base.announcement Net.Transport.fanout option;
  mutable nacks_wanted : int;
  mutable nacks_sent : int;
  mutable nacks_suppressed : int;
  mutable nacks_delivered : int;
  mutable reheats : int;
}

let seq_window = 1 lsl 16

let prune_heard t now =
  if Seq_tbl.length t.heard > 8192 then begin
    let cutoff = now -. (4.0 *. t.nack_slot) in
    let stale =
      (* lint: allow D003 commutative: collects a stale set for removal; order never escapes *)
      Seq_tbl.fold
        (fun seq time acc -> if time < cutoff then seq :: acc else acc)
        t.heard []
    in
    List.iter (Seq_tbl.remove t.heard) stale
  end

let heard_recently t ~now seq =
  match Seq_tbl.find t.heard seq with
  | time -> now -. time <= 2.0 *. t.nack_slot
  | exception Not_found -> false

let send_nack t ~now ?(parent = Trace.no_id) receiver seq =
  match t.fb_outbox with
  | None -> ()
  | Some ob ->
      t.nacks_sent <- t.nacks_sent + 1;
      if t.traced then begin
        let key =
          match Seq_ring.find t.seq_to_key seq with
          | Some k -> k
          | None -> Trace.no_id
        in
        Trace.emit t.trace
          (Trace.event ~time:now ~src:"multicast"
             ~detail:(string_of_int receiver) ~key ~packet:seq ~parent
             Trace.Nack)
      end;
      (* the NACK is multicast: all members (and the sender) hear it
         as soon as it clears the feedback channel; for damping we
         mark it heard at send time, which models receivers on a
         shared medium hearing the request directly *)
      if t.suppression then begin
        Seq_tbl.replace t.heard seq now;
        prune_heard t now
      end;
      ignore
        (ob.Net.Transport.o_send
           (Net.Packet.make ~size_bits:t.nack_bits
              { missing_seq = seq; origin = receiver }))

let want_repair t receiver ~parent seq =
  t.nacks_wanted <- t.nacks_wanted + 1;
  let now = Engine.now (Base.engine t.base) in
  if not t.suppression then send_nack t ~now ~parent receiver.index seq
  else if heard_recently t ~now seq then
    t.nacks_suppressed <- t.nacks_suppressed + 1
  else begin
    (* slotting: delay uniformly, re-check damping at fire time *)
    let delay = Dist.uniform t.slot_rng ~lo:0.0 ~hi:t.nack_slot in
    Engine.schedule (Base.engine t.base) ~after:delay (fun engine ->
        let now = Engine.now engine in
        if heard_recently t ~now seq then
          t.nacks_suppressed <- t.nacks_suppressed + 1
        else send_nack t ~now ~parent receiver.index seq)
  end

let receiver_deliver t state ~now (ann : Base.announcement) =
  if ann.Base.seq > state.expected_seq then
    for missing = state.expected_seq to ann.Base.seq - 1 do
      want_repair t state ~parent:ann.Base.seq missing
    done;
  if ann.Base.seq >= state.expected_seq then
    state.expected_seq <- ann.Base.seq + 1;
  Base.deliver t.base ~now ~receiver:state.index ann

let on_nack t ~now nack =
  t.nacks_delivered <- t.nacks_delivered + 1;
  match Seq_ring.find t.seq_to_key nack.missing_seq with
  | None -> ()
  | Some key ->
      if Two_queue.reheat t.sender ~now ~cause:nack.missing_seq key then
        t.reheats <- t.reheats + 1

let create ~base ~mu_hot_bps ~mu_cold_bps ~mu_fb_bps ?sched ?obs ?transport
    ?(nack_bits = 500) ?(fb_queue_capacity = 4096) ?(suppression = true)
    ?(nack_slot = 0.5) ~receiver_loss ~link_rng () =
  if mu_fb_bps <= 0.0 then
    invalid_arg "Multicast.create: feedback rate must be positive";
  if nack_slot <= 0.0 then
    invalid_arg "Multicast.create: nack slot must be positive";
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs (Base.engine base)
  in
  let sched_rng = Rng.split link_rng in
  let fb_rng = Rng.split link_rng in
  let slot_rng = Rng.split link_rng in
  let sender =
    Two_queue.create_queues ~base ~mu_hot_bps ~mu_cold_bps ?sched ?obs
      ~sched_rng ()
  in
  let t =
    { base; sender; seq_to_key = Seq_ring.create ~window:seq_window;
      nack_bits; suppression;
      nack_slot; slot_rng; heard = Seq_tbl.create 1024;
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      fb_outbox = None;
      fanout = None; nacks_wanted = 0; nacks_sent = 0; nacks_suppressed = 0;
      nacks_delivered = 0; reheats = 0 }
  in
  let fetch () =
    match Two_queue.fetch_packet sender with
    | None -> None
    | Some packet as fetched ->
        let ann = packet.Net.Packet.payload in
        Seq_ring.store t.seq_to_key ~seq:ann.Base.seq ~key:ann.Base.key;
        fetched
  in
  let fanout =
    transport.Net.Transport.fanout
      ~rate_bps:(mu_hot_bps +. mu_cold_bps)
      ~on_served:(fun ~now packet ->
        Two_queue.serve_completion sender ~now
          packet.Net.Packet.payload.Base.key)
      ~label:"multicast.data"
      ~rng:link_rng ~fetch ()
  in
  for i = 0 to Base.receiver_count base - 1 do
    let state = { index = i; expected_seq = 0 } in
    ignore
      (fanout.Net.Transport.f_subscribe ~loss:(receiver_loss i)
         (fun ~now ann -> receiver_deliver t state ~now ann))
  done;
  t.fanout <- Some fanout;
  Two_queue.attach_kick sender (fun () -> fanout.Net.Transport.f_kick ());
  let outbox =
    transport.Net.Transport.outbox ~rate_bps:mu_fb_bps
      ~queue_capacity:fb_queue_capacity ~label:"multicast.fb" ~rng:fb_rng
      ~deliver:(fun ~now nack -> on_nack t ~now nack)
      ()
  in
  t.fb_outbox <- Some outbox;
  t

let sender t = t.sender

let fanout t =
  match t.fanout with Some f -> f | None -> assert false

let nacks_wanted t = t.nacks_wanted
let nacks_sent t = t.nacks_sent
let nacks_suppressed t = t.nacks_suppressed
let nacks_delivered t = t.nacks_delivered

let nack_overflows t =
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
