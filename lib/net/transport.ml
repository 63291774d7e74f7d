module Rng = Softstate_util.Rng

type 'a deliver = now:float -> 'a -> unit

type unicast = {
  u_kick : unit -> unit;
  u_stats : unit -> Link.Stats.t;
  u_utilisation : now:float -> float;
}

type 'a outbox = {
  o_send : 'a Packet.t -> bool;
  o_overflows : unit -> int;
  o_stats : unit -> Link.Stats.t;
}

type 'a fanout = {
  f_kick : unit -> unit;
  f_subscribe : loss:Loss.t -> 'a deliver -> int;
  f_served : unit -> int;
  f_receiver_losses : int -> int;
  f_utilisation : now:float -> float;
}

type t = {
  name : string;
  unicast :
    'a.
    rate_bps:float ->
    ?delay:float ->
    ?loss:Loss.t ->
    ?on_served:(now:float -> 'a Packet.t -> unit) ->
    label:string ->
    rng:Rng.t ->
    fetch:(unit -> 'a Packet.t option) ->
    deliver:'a deliver ->
    unit ->
    unicast;
  outbox :
    'a.
    rate_bps:float ->
    ?delay:float ->
    ?loss:Loss.t ->
    ?queue_capacity:int ->
    label:string ->
    rng:Rng.t ->
    deliver:'a deliver ->
    unit ->
    'a outbox;
  fanout :
    'a.
    rate_bps:float ->
    ?delay:float ->
    ?on_served:(now:float -> 'a Packet.t -> unit) ->
    label:string ->
    rng:Rng.t ->
    fetch:(unit -> 'a Packet.t option) ->
    unit ->
    'a fanout;
}

(* Each single-hop medium's server delivers the whole packet; the
   protocol's [deliver] takes its payload. *)
let single_hop ?obs engine =
  { name = "single-hop";
    unicast =
      (fun ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver () ->
        let link =
          Link.create engine ~rate_bps ?delay ?loss ?on_served ?obs ~label
            ~rng ~fetch
            ~deliver:(fun ~now p -> deliver ~now p.Packet.payload)
            ()
        in
        { u_kick = (fun () -> Link.kick link);
          u_stats = (fun () -> Link.stats link);
          u_utilisation = (fun ~now -> Link.utilisation link ~now) });
    outbox =
      (fun ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng ~deliver () ->
        let pipe =
          Pipe.create engine ~rate_bps ?delay ?loss ?queue_capacity ?obs ~label
            ~rng
            ~deliver:(fun ~now p -> deliver ~now p.Packet.payload)
            ()
        in
        { o_send = (fun packet -> Pipe.send pipe packet);
          o_overflows = (fun () -> Pipe.overflows pipe);
          o_stats = (fun () -> Pipe.link_stats pipe) });
    fanout =
      (fun ~rate_bps ?delay ?on_served ~label ~rng ~fetch () ->
        let channel =
          Channel.create engine ~rate_bps ?delay ?on_served ?obs ~label ~rng
            ~fetch ()
        in
        { f_kick = (fun () -> Channel.kick channel);
          f_subscribe =
            (fun ~loss deliver -> Channel.subscribe channel ~loss deliver);
          f_served = (fun () -> Channel.served channel);
          f_receiver_losses = (fun sub -> Channel.receiver_losses channel sub);
          f_utilisation = (fun ~now -> Channel.utilisation channel ~now) }) }
