module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

module Stats = struct
  type t = {
    fetched : int;
    delivered : int;
    dropped : int;
    bits_served : float;
    busy_time : float;
  }
end

(* The link's float state in an all-float record, which OCaml stores
   flat: updating a field writes the float in place instead of
   allocating a box for it, as a mutable float field of the mixed
   record below would. *)
type clock = {
  mutable service : float; (* service time of the packet in service *)
  mutable bits_served : float;
  mutable busy_time : float;
}

type 'a t = {
  engine : Engine.t;
  mutable rate_bps : float;
  delay : float;
  loss : Loss.t;
  rng : Rng.t;
  fetch : unit -> 'a Packet.t option;
  deliver : now:float -> 'a -> unit;
  on_served : (now:float -> 'a Packet.t -> unit) option;
  created_at : float;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time: untraced
                    runs pay one immutable-field load per guard *)
  src : string;
  hop : int; (* position along a topology path, Trace.no_id standalone *)
  mutable in_service : 'a Packet.t option; (* Some exactly while busy *)
  mutable fetched : int;
  mutable delivered : int;
  mutable dropped : int;
  clock : clock;
  complete : Engine.t -> unit;
      (* the service-completion event, allocated once per link *)
}

let register_probes t obs =
  let m = Obs.metrics obs in
  Metrics.probe m (t.src ^ ".sent") (fun ~now:_ -> float_of_int t.fetched);
  Metrics.probe m (t.src ^ ".delivered") (fun ~now:_ ->
      float_of_int t.delivered);
  Metrics.probe m (t.src ^ ".dropped") (fun ~now:_ -> float_of_int t.dropped);
  Metrics.probe m (t.src ^ ".bits_served") (fun ~now:_ -> t.clock.bits_served);
  Metrics.probe m (t.src ^ ".utilisation") (fun ~now ->
      let span = now -. t.created_at in
      if span <= 0.0 then 0.0 else t.clock.busy_time /. span)

(* Start serving [packet] ([Some] of it, as fetched): its completion
   fires after the service time at the current rate. *)
let start t (current : 'a Packet.t option) packet =
  t.in_service <- current;
  t.fetched <- t.fetched + 1;
  let service = float_of_int packet.Packet.size_bits /. t.rate_bps in
  t.clock.service <- service;
  Engine.schedule t.engine ~after:service t.complete

let serve_next t =
  match t.fetch () with
  | None -> t.in_service <- None
  | Some packet as current -> start t current packet

(* Survivors of the loss draw with a propagation delay arrive later;
   the closure for that arrival is this helper's, not the completion's. *)
let deliver_later t payload =
  Engine.schedule t.engine ~after:t.delay (fun engine ->
      t.deliver ~now:(Engine.now engine) payload)

let complete t engine =
  match t.in_service with
  | None -> assert false
  | Some packet ->
      let size = float_of_int packet.Packet.size_bits in
      t.clock.bits_served <- t.clock.bits_served +. size;
      t.clock.busy_time <- t.clock.busy_time +. t.clock.service;
      (match t.on_served with
      | Some f -> f ~now:(Engine.now engine) packet
      | None -> ());
      (* One Packet_sent is always followed by exactly one
         Packet_dropped or Packet_delivered, so per-source trace
         streams satisfy sent = dropped + delivered. *)
      let traced = t.traced in
      let pkt = packet.Packet.id in
      let now = Engine.now engine in
      if traced then
        Trace.emit t.trace
          (Trace.event ~time:now ~src:t.src ~value:size ~packet:pkt ~hop:t.hop
             Trace.Packet_sent);
      if Loss.drop t.loss t.rng then begin
        t.dropped <- t.dropped + 1;
        if traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:t.src ~value:size ~packet:pkt
               ~hop:t.hop Trace.Packet_dropped)
      end
      else begin
        t.delivered <- t.delivered + 1;
        if traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:t.src ~value:size ~packet:pkt
               ~hop:t.hop Trace.Packet_delivered);
        if Float.equal t.delay 0.0 then t.deliver ~now packet.Packet.payload
        else deliver_later t packet.Packet.payload
      end;
      serve_next t

let create engine ~rate_bps ?(delay = 0.0) ?(loss = Loss.never) ?on_served
    ?obs ?(label = "link") ?(hop = Trace.no_id) ~rng ~fetch ~deliver () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Link.create: negative delay";
  let trace = Obs.trace_of obs in
  let traced = Trace.enabled trace and created_at = Engine.now engine in
  let clock = { service = 0.0; bits_served = 0.0; busy_time = 0.0 } in
  let rec t =
    { engine; rate_bps; delay; loss; rng; fetch; deliver; on_served;
      created_at; trace; traced; src = label; hop; in_service = None;
      fetched = 0; delivered = 0; dropped = 0; clock;
      complete = (fun engine -> complete t engine) }
  in
  (match obs with Some o -> register_probes t o | None -> ());
  t

let kick t = if Option.is_none t.in_service then serve_next t

let offer t packet =
  if Option.is_some t.in_service then false
  else begin
    start t (Some packet) packet;
    true
  end

let is_busy t = Option.is_some t.in_service
let rate_bps t = t.rate_bps

let set_rate t rate =
  if rate <= 0.0 then invalid_arg "Link.set_rate: rate must be positive";
  t.rate_bps <- rate;
  if t.traced then
    Trace.emit t.trace
      (Trace.event ~time:(Engine.now t.engine) ~src:t.src ~value:rate
         Trace.Rate_change)

let stats t =
  { Stats.fetched = t.fetched; delivered = t.delivered; dropped = t.dropped;
    bits_served = t.clock.bits_served; busy_time = t.clock.busy_time }

let utilisation t ~now =
  let span = now -. t.created_at in
  if span <= 0.0 then 0.0 else t.clock.busy_time /. span
