(** Rate-limited, lossy, delayed point-to-point link.

    The link is the paper's "channel with capacity C": a single FIFO
    server whose service time for a packet is [size_bits / rate_bps].
    It is {e pull-based}: when idle it asks the sender's [fetch] for
    the next packet, which is how hot/cold scheduling decisions are
    made at the last possible moment (a push FIFO would freeze the
    schedule at enqueue time). After service the loss process decides
    whether the packet survives; survivors are delivered [delay]
    seconds later.

    When [fetch] returns [None] the link idles; call {!kick} when new
    work arrives. *)

type 'a t

val create :
  Softstate_sim.Engine.t ->
  rate_bps:float ->
  ?delay:float ->
  ?loss:Loss.t ->
  ?on_served:(now:float -> 'a Packet.t -> unit) ->
  ?obs:Softstate_obs.Obs.t ->
  ?label:string ->
  ?hop:int ->
  rng:Softstate_util.Rng.t ->
  fetch:(unit -> 'a Packet.t option) ->
  deliver:(now:float -> 'a Packet.t -> unit) ->
  unit ->
  'a t
(** [create engine ~rate_bps ~delay ~loss ~rng ~fetch ~deliver ()]
    makes an idle link. [rate_bps] must be positive; [delay] defaults
    to 0 and [loss] to {!Loss.never}. The link does not start serving
    until the first {!kick}.

    [deliver] receives each packet that survives the loss draw, whole:
    its id and size travel with the payload, so a packet can enter the
    next server on a path as it is.

    [on_served] fires at the sender when a packet finishes service,
    {e before} the loss draw — the hook where announce/listen decides
    a record's fate (death, requeue) independent of whether the
    network then loses the packet.

    With [obs], the link registers [<label>.sent] / [.delivered] /
    [.dropped] / [.bits_served] / [.utilisation] probes on the metrics
    registry and emits [Packet_sent] / [Packet_dropped] /
    [Packet_delivered] trace events (source [label], default
    ["link"]) at the loss-decision point, so per-source streams
    satisfy sent = dropped + delivered exactly. Trace events carry the
    packet's correlation id and this link's [hop] index (position
    along a topology path; defaults to [Trace.no_id] for standalone
    links). *)

val kick : 'a t -> unit
(** Wake the link if idle; no-op while busy. Call whenever [fetch]
    may newly return a packet. *)

val offer : 'a t -> 'a Packet.t -> bool
(** [offer t p] starts serving [p] at once if the link is idle, without
    going through [fetch]; [false] (and no change) while it is busy.
    For push-based senders whose queue is empty whenever the link
    idles: handing the packet over directly then serves it exactly as
    queueing it and calling {!kick} would. *)

(* lint: allow U001 (a) used by test "idle/kick" *)
val is_busy : 'a t -> bool

(** Counters since creation. *)
module Stats : sig
  type t = {
    fetched : int;       (** packets taken from the sender *)
    delivered : int;     (** packets that survived loss *)
    dropped : int;       (** packets destroyed by the loss process *)
    bits_served : float; (** total bits through the server *)
    busy_time : float;   (** total time the server was serving *)
  }
end

val stats : 'a t -> Stats.t

val utilisation : 'a t -> now:float -> float
(** Fraction of elapsed time the server spent serving. *)
