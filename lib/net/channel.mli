(** Multicast announcement channel.

    One pull-based server of shared capacity whose every served packet
    is offered to each subscriber through that subscriber's own loss
    process — the announce/listen medium of the paper generalised from
    one receiver to a group. The server is a lossless, zero-delay
    {!Link}; loss and propagation delay apply per subscriber. *)

type 'a t

type subscription = int
(** Subscriber handle, unique per channel for its lifetime. *)

val create :
  Softstate_sim.Engine.t ->
  rate_bps:float ->
  ?delay:float ->
  ?on_served:(now:float -> 'a Packet.t -> unit) ->
  ?obs:Softstate_obs.Obs.t ->
  ?label:string ->
  rng:Softstate_util.Rng.t ->
  fetch:(unit -> 'a Packet.t option) ->
  unit ->
  'a t
(** [on_served] fires once per packet when the shared server finishes
    it, before the per-receiver loss draws.

    With [obs], registers [<label>.sent] / [<label>.utilisation]
    probes (default label ["channel"]) and emits one [Packet_sent]
    per served packet plus a [Packet_dropped] or [Packet_delivered]
    per subscriber, tagged with the subscriber id in [detail]. *)

val subscribe :
  'a t -> ?loss:Loss.t -> (now:float -> 'a -> unit) -> subscription
(** [subscribe t ~loss f] adds a receiver; every packet surviving
    [loss] (default lossless) is passed to [f]. Subscribing while the
    channel is active is allowed — late joiners are a soft-state use
    case.

    Fan-out uses snapshot semantics: the subscriber set for a served
    packet is fixed when service completes. Every receiver subscribed
    then gets exactly one loss draw and at most one delivery for that
    packet, and a subscriber added from inside a delivery callback
    first sees the next packet. *)

val kick : 'a t -> unit
val served : 'a t -> int
(** Packets whose service has completed so far; one still in service
    is not counted. *)

val utilisation : 'a t -> now:float -> float
(** Fraction of elapsed time the shared server spent serving. *)

val receiver_losses : 'a t -> subscription -> int
(** Packets this subscriber lost to its own loss process. *)
