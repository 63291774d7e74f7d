module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace

(* Every live record is exactly one of: queued ([Cold]), in service,
   or dead — so updates never need to enqueue (the next announcement of
   the circulating record carries the bumped version), matching the
   single-queue analytic model. The state lives on the record, so the
   queue holds records and a fetch needs no lookup. *)
type t = {
  base : Base.t;
  queue : Record.t Queue.t;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  mutable seq : int;
  mutable unicast : Net.Transport.unicast option;
}

let rec fetch t () =
  match Queue.take_opt t.queue with
  | None -> None
  | Some { Record.state = Dead; _ } -> fetch t () (* killed while queued; skip *)
  | Some r ->
      r.Record.state <- In_service;
      let seq = t.seq in
      t.seq <- seq + 1;
      if t.traced then
        Trace.emit t.trace
          (Trace.event
             ~time:(Engine.now (Base.engine t.base))
             ~src:"open_loop" ~detail:(string_of_int r.Record.key)
             ~key:r.Record.key ~packet:seq Trace.Announce);
      let ann = Base.announce_of t.base ~seq r in
      Some (Net.Packet.stamped ~id:seq ~size_bits:r.Record.size_bits ann)

let on_served t ~now (packet : Base.announcement Net.Packet.t) =
  match Table.find (Base.table t.base) packet.Net.Packet.payload.Base.key with
  | None -> ()
  | Some r ->
      if not (Base.death_draw t.base ~now r) then begin
        (* Survived: circulate for the next periodic announcement. *)
        r.Record.state <- Cold;
        Queue.add r t.queue;
        match t.unicast with Some u -> u.Net.Transport.u_kick () | None -> ()
      end

let create ~base ~mu_data_bps ?obs ?transport ~loss ~link_rng () =
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs (Base.engine base)
  in
  let t =
    { base; queue = Queue.create ();
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs); seq = 0; unicast = None }
  in
  let unicast =
    transport.Net.Transport.unicast ~rate_bps:mu_data_bps ~loss
      ~on_served:(fun ~now packet -> on_served t ~now packet)
      ~label:"open_loop.data"
      ~rng:link_rng
      ~fetch:(fetch t)
      ~deliver:(fun ~now ann -> Base.deliver base ~now ~receiver:0 ann)
      ()
  in
  t.unicast <- Some unicast;
  Base.set_hooks base
    ~on_arrival:(fun r ->
      if r.Record.state = Idle then begin
        r.Record.state <- Cold;
        Queue.add r t.queue
      end;
      unicast.Net.Transport.u_kick ())
    ~on_death:(fun r -> r.Record.state <- Dead);
  t

let unicast t = match t.unicast with Some u -> u | None -> assert false
