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
  mutable busy : bool;
  mutable fetched : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bits_served : float;
  mutable busy_time : float;
}

let register_probes t obs =
  let m = Obs.metrics obs in
  Metrics.probe m (t.src ^ ".sent") (fun ~now:_ -> float_of_int t.fetched);
  Metrics.probe m (t.src ^ ".delivered") (fun ~now:_ ->
      float_of_int t.delivered);
  Metrics.probe m (t.src ^ ".dropped") (fun ~now:_ -> float_of_int t.dropped);
  Metrics.probe m (t.src ^ ".bits_served") (fun ~now:_ -> t.bits_served);
  Metrics.probe m (t.src ^ ".utilisation") (fun ~now ->
      let span = now -. t.created_at in
      if span <= 0.0 then 0.0 else t.busy_time /. span)

let create engine ~rate_bps ?(delay = 0.0) ?(loss = Loss.never) ?on_served
    ?obs ?(label = "link") ?(hop = Trace.no_id) ~rng ~fetch ~deliver () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Link.create: negative delay";
  let trace = Obs.trace_of obs in
  let t =
    { engine; rate_bps; delay; loss; rng; fetch; deliver; on_served;
      created_at = Engine.now engine; trace;
      traced = Trace.enabled trace; src = label; hop;
      busy = false; fetched = 0; delivered = 0;
      dropped = 0; bits_served = 0.0; busy_time = 0.0 }
  in
  (match obs with Some o -> register_probes t o | None -> ());
  t

let rec serve_next t =
  match t.fetch () with
  | None -> t.busy <- false
  | Some packet ->
      t.busy <- true;
      t.fetched <- t.fetched + 1;
      let service = float_of_int packet.Packet.size_bits /. t.rate_bps in
      ignore
        (Engine.schedule t.engine ~after:service (fun engine ->
             t.bits_served <- t.bits_served +. float_of_int packet.Packet.size_bits;
             t.busy_time <- t.busy_time +. service;
             (match t.on_served with
             | Some f -> f ~now:(Engine.now engine) packet
             | None -> ());
             (* One Packet_sent is always followed by exactly one
                Packet_dropped or Packet_delivered, so per-source trace
                streams satisfy sent = dropped + delivered. *)
             let traced = t.traced in
             let size = float_of_int packet.Packet.size_bits in
             let pkt = packet.Packet.id in
             let now = Engine.now engine in
             if traced then
               Trace.emit t.trace
                 (Trace.event ~time:now ~src:t.src ~value:size ~packet:pkt
                    ~hop:t.hop Trace.Packet_sent);
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
               let payload = packet.Packet.payload in
               if Float.equal t.delay 0.0 then
                 t.deliver ~now:(Engine.now engine) payload
               else
                 ignore
                   (Engine.schedule engine ~after:t.delay (fun engine ->
                        t.deliver ~now:(Engine.now engine) payload))
             end;
             serve_next t))

let kick t = if not t.busy then serve_next t
let is_busy t = t.busy
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
    bits_served = t.bits_served; busy_time = t.busy_time }

let utilisation t ~now =
  let span = now -. t.created_at in
  if span <= 0.0 then 0.0 else t.busy_time /. span
