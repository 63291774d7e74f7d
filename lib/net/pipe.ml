module Ring = Softstate_util.Ring
module Engine = Softstate_sim.Engine
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type 'a t = {
  engine : Engine.t;
  queue : 'a Packet.t Ring.t;
  link : 'a Link.t;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  src : string;
  mutable overflows : int;
}

let create engine ~rate_bps ?delay ?loss ?(queue_capacity = 1024) ?obs
    ?(label = "pipe") ?hop ~rng ~deliver () =
  let queue = Ring.create ~capacity:queue_capacity in
  let fetch () = Ring.pop queue in
  let link =
    Link.create engine ~rate_bps ?delay ?loss ?obs ~label ?hop ~rng ~fetch
      ~deliver ()
  in
  let trace = Obs.trace_of obs in
  let t =
    { engine; queue; link; trace; traced = Trace.enabled trace; src = label;
      overflows = 0 }
  in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m (label ^ ".overflows") (fun ~now:_ ->
          float_of_int t.overflows);
      Metrics.probe m (label ^ ".queue_len") (fun ~now:_ ->
          float_of_int (Ring.length t.queue))
  | None -> ());
  t

(* The link idles only after [fetch] found the queue empty, and every
   push to an idle link's queue would be popped straight back into
   service, so a packet for an idle link skips the queue. *)
let send t packet =
  if Link.offer t.link packet || Ring.push t.queue packet then true
  else begin
    t.overflows <- t.overflows + 1;
    if t.traced then
      Trace.emit t.trace
        (Trace.event ~time:(Engine.now t.engine) ~src:t.src
           ~value:(float_of_int packet.Packet.size_bits)
           ~packet:packet.Packet.id Trace.Queue_overflow);
    false
  end

let queue_length t = Ring.length t.queue
let overflows t = t.overflows
let link_stats t = Link.stats t.link
let set_rate t rate = Link.set_rate t.link rate
