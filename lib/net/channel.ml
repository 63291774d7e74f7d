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

type 'a t = {
  engine : Engine.t;
  rate_bps : float;
  delay : float;
  rng : Rng.t;
  fetch : unit -> 'a Packet.t option;
  on_served : (now:float -> 'a Packet.t -> unit) option;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  src : string;
  mutable receivers : 'a receiver list;
  mutable next_id : int;
  mutable busy : bool;
  mutable served : int;
  created_at : float;
  mutable busy_time : float;
}

let create engine ~rate_bps ?(delay = 0.0) ?on_served ?obs
    ?(label = "channel") ~rng ~fetch () =
  if rate_bps <= 0.0 then invalid_arg "Channel.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Channel.create: negative delay";
  let trace = Obs.trace_of obs in
  let t =
    { engine; rate_bps; delay; rng; fetch; on_served;
      trace; traced = Trace.enabled trace;
      src = label; receivers = []; next_id = 0;
      busy = false; served = 0; created_at = Engine.now engine;
      busy_time = 0.0 }
  in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m (label ^ ".sent") (fun ~now:_ -> float_of_int t.served);
      Metrics.probe m (label ^ ".utilisation") (fun ~now ->
          let span = now -. t.created_at in
          if span <= 0.0 then 0.0 else t.busy_time /. span)
  | None -> ());
  t

let subscribe t ?(loss = Loss.never) callback =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.receivers <- { id; loss; callback; lost = 0 } :: t.receivers;
  id

let unsubscribe t sub =
  t.receivers <- List.filter (fun r -> r.id <> sub) t.receivers

let fan_out t ~pkt payload =
  (* Draw each receiver's loss independently at service completion;
     delivery is delayed by propagation. *)
  let traced = t.traced in
  let now = Engine.now t.engine in
  List.iter
    (fun r ->
      if Loss.drop r.loss t.rng then begin
        r.lost <- r.lost + 1;
        if traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:t.src
               ~detail:(string_of_int r.id) ~packet:pkt Trace.Packet_dropped)
      end
      else begin
        if traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:t.src
               ~detail:(string_of_int r.id) ~packet:pkt
               Trace.Packet_delivered);
        if Float.equal t.delay 0.0 then r.callback ~now payload
        else
          Engine.schedule t.engine ~after:t.delay (fun engine ->
              r.callback ~now:(Engine.now engine) payload)
      end)
    t.receivers

let rec serve_next t =
  match t.fetch () with
  | None -> t.busy <- false
  | Some packet ->
      t.busy <- true;
      let service = float_of_int packet.Packet.size_bits /. t.rate_bps in
      Engine.schedule t.engine ~after:service (fun engine ->
          t.served <- t.served + 1;
          t.busy_time <- t.busy_time +. service;
          (match t.on_served with
          | Some f -> f ~now:(Engine.now engine) packet
          | None -> ());
          if t.traced then
            Trace.emit t.trace
              (Trace.event ~time:(Engine.now engine) ~src:t.src
                 ~value:(float_of_int packet.Packet.size_bits)
                 ~packet:packet.Packet.id Trace.Packet_sent);
          fan_out t ~pkt:packet.Packet.id packet.Packet.payload;
          serve_next t)

let kick t = if not t.busy then serve_next t
let subscriber_count t = List.length t.receivers
let served t = t.served

let utilisation t ~now =
  let span = now -. t.created_at in
  if span <= 0.0 then 0.0 else t.busy_time /. span

let receiver_losses t sub =
  match List.find_opt (fun r -> r.id = sub) t.receivers with
  | Some r -> r.lost
  | None -> raise Not_found
