(** Pluggable transport: the seam between protocol machinery and the
    network substrate.

    Every announce/listen variant and SSTP endpoint needs exactly
    three media:

    - a {e unicast} path — a pull-served, rate-limited, lossy, delayed
      stream from one sender to one receiver ({!Link} is the
      single-hop instance);
    - an {e outbox} — a push-in bounded queue draining over such a
      path (feedback/NACK channels; {!Pipe} is the single-hop
      instance);
    - a {e fanout} — a pull-served medium whose every packet is
      offered to a set of subscribers ({!Channel} is the single-hop
      instance).

    Protocols are parameterised over a {!t}: a record of factories
    producing those media. {!single_hop} builds each medium as one
    {!Link}, {!Pipe} or {!Channel}, consuming no randomness of its
    own, while [Topology.transport] routes the same traffic
    hop-by-hop through a node graph with per-link loss, delay,
    queueing and fault state.

    Rate, loss and delay are fixed per medium at creation (multi-hop
    transports apply them at the sender's access hop and add per-link
    processes downstream). *)

module Rng = Softstate_util.Rng

type 'a deliver = now:float -> 'a -> unit
(** Terminal delivery callback, in simulation time. *)

type unicast = {
  u_kick : unit -> unit;
      (** wake the sender-side server when work arrives *)
  u_stats : unit -> Link.Stats.t;
      (** sender-side (first-hop) counters: fetched / delivered /
          dropped are per-hop readings on multi-hop transports *)
  u_utilisation : now:float -> float;
      (** busy fraction of the sender-side server *)
}
(** Handle on a unicast path. The payload type appears only in the
    creation-time [fetch]/[deliver] closures, so the handle itself is
    monomorphic. *)

type 'a outbox = {
  o_send : 'a Packet.t -> bool;
      (** enqueue for transmission; [false] on overflow *)
  o_overflows : unit -> int;
  o_stats : unit -> Link.Stats.t;  (** first-hop counters *)
}

type 'a fanout = {
  f_kick : unit -> unit;
  f_subscribe : loss:Loss.t -> 'a deliver -> int;
      (** add a receiver; [loss] is that receiver's own last-hop loss
          process (pass {!Loss.never} when the transport's links carry
          the loss). Returns a subscriber id. *)
  f_served : unit -> int;
      (** packets whose service at the root server has completed *)
  f_receiver_losses : int -> int;
      (** packets the subscriber's own loss process destroyed *)
  f_utilisation : now:float -> float;
}

type t = {
  name : string;  (** e.g. ["single-hop"], ["topology:tree"] *)
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
(** A transport implementation, packaged as a record of polymorphic
    factories so one value serves a protocol's several payload types
    (announcements on the data path, NACKs on the feedback path). *)

val single_hop : ?obs:Softstate_obs.Obs.t -> Softstate_sim.Engine.t -> t
(** [single_hop ?obs engine] builds each medium as one {!Link},
    {!Pipe} or {!Channel} with the same arguments, forwarding [obs]
    to every medium, so it behaves exactly like the direct
    [Link.create] / [Pipe.create] / [Channel.create] call. *)
