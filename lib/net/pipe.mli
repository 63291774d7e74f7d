(** Push-based FIFO link.

    A {!Link.t} with its own bounded queue: senders [send] packets and
    the pipe drains them in order at its service rate. Used for the
    feedback (NACK) channel, whose contents are not rescheduled after
    enqueue. When the queue is full the packet is dropped at the tail
    and counted, which models feedback-bandwidth starvation — the
    mechanism behind the consistency collapse in Figure 8. *)

type 'a t

val create :
  Softstate_sim.Engine.t ->
  rate_bps:float ->
  ?delay:float ->
  ?loss:Loss.t ->
  ?queue_capacity:int ->
  ?obs:Softstate_obs.Obs.t ->
  ?label:string ->
  ?hop:int ->
  rng:Softstate_util.Rng.t ->
  deliver:(now:float -> 'a Packet.t -> unit) ->
  unit ->
  'a t
(** [deliver] receives each packet that survives the inner link's
    loss draw, whole, as {!Link.create}'s does. [queue_capacity]
    defaults to 1024 packets. With [obs], the inner
    link is instrumented under [label] (default ["pipe"]) and the pipe
    additionally registers [<label>.overflows] / [<label>.queue_len]
    probes and emits a [Queue_overflow] trace event per rejected
    packet. *)

val send : 'a t -> 'a Packet.t -> bool
(** Enqueue a packet; [false] if the queue overflowed (the packet is
    lost at the sender). *)

(* lint: allow U001 (a) used by test "idle/busy order" *)
val queue_length : 'a t -> int
val overflows : 'a t -> int
val link_stats : 'a t -> Link.Stats.t
