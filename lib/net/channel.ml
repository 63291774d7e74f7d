module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type 'a receiver = {
  id : int;
  loss : Loss.t;
  callback : now:float -> 'a -> unit;
  mutable lost : int;
}

type subscription = int

(* Everything but the server: the subscribers and what their loss
   draws, delays and trace events need. *)
type 'a group = {
  engine : Engine.t;
  delay : float;
  rng : Rng.t;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  src : string;
  mutable receivers : 'a receiver list;
  mutable next_id : int;
}

type 'a t = { group : 'a group; server : 'a Link.t }

let subscribe t ?(loss = Loss.never) callback =
  let g = t.group in
  let id = g.next_id in
  g.next_id <- id + 1;
  g.receivers <- { id; loss; callback; lost = 0 } :: g.receivers;
  id

(* What the server's completion hands on, in this order: the channel's
   own Packet_sent, then each receiver's independent loss draw, then
   delivery, delayed by propagation. *)
let fan_out g ~now (packet : 'a Packet.t) =
  let traced = g.traced in
  let pkt = packet.Packet.id and payload = packet.Packet.payload in
  if traced then
    Trace.emit g.trace
      (Trace.event ~time:now ~src:g.src
         ~value:(float_of_int packet.Packet.size_bits) ~packet:pkt
         Trace.Packet_sent);
  List.iter
    (fun r ->
      if Loss.drop r.loss g.rng then begin
        r.lost <- r.lost + 1;
        if traced then
          Trace.emit g.trace
            (Trace.event ~time:now ~src:g.src
               ~detail:(string_of_int r.id) ~packet:pkt Trace.Packet_dropped)
      end
      else begin
        if traced then
          Trace.emit g.trace
            (Trace.event ~time:now ~src:g.src
               ~detail:(string_of_int r.id) ~packet:pkt
               Trace.Packet_delivered);
        if Float.equal g.delay 0.0 then r.callback ~now payload
        else
          Engine.schedule g.engine ~after:g.delay (fun engine ->
              r.callback ~now:(Engine.now engine) payload)
      end)
    g.receivers

(* The shared server is a lossless, zero-delay Link with no obs: under
   [Loss.never] it draws nothing from [rng], and it delivers every
   packet it completes. The channel's delay is per receiver. *)
let create engine ~rate_bps ?(delay = 0.0) ?on_served ?obs
    ?(label = "channel") ~rng ~fetch () =
  if delay < 0.0 then invalid_arg "Channel.create: negative delay";
  let trace = Obs.trace_of obs in
  let g =
    { engine; delay; rng; trace; traced = Trace.enabled trace; src = label;
      receivers = []; next_id = 0 }
  in
  let server =
    Link.create engine ~rate_bps ?on_served ~rng ~fetch
      ~deliver:(fun ~now packet -> fan_out g ~now packet)
      ()
  in
  let t = { group = g; server } in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m (label ^ ".sent") (fun ~now:_ ->
          float_of_int (Link.stats server).Link.Stats.delivered);
      Metrics.probe m (label ^ ".utilisation") (fun ~now ->
          Link.utilisation server ~now)
  | None -> ());
  t

let kick t = Link.kick t.server
let served t = (Link.stats t.server).Link.Stats.delivered
let utilisation t ~now = Link.utilisation t.server ~now

let receiver_losses t sub =
  match List.find_opt (fun r -> r.id = sub) t.group.receivers with
  | Some r -> r.lost
  | None -> raise Not_found
