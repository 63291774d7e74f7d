(** Announce/listen with receiver feedback (paper §5, Figure 7).

    The sender runs the {!Two_queue} hot/cold machinery; the receiver
    detects losses as gaps in the data-channel sequence numbers and
    returns NACKs over a separate feedback channel of rate [mu_fb].
    A NACK moves the named record from the cold queue to the tail of
    the hot queue, so hot bandwidth serves new data {e and} requested
    repairs while cold bandwidth covers late joiners and lost NACKs.

    The feedback channel is itself lossy and has a bounded queue:
    when [mu_fb] is too small the NACK queue overflows and repairs
    degrade gracefully to the cold-retransmission path; when [mu_fb]
    eats into the data bandwidth the data queues saturate — the two
    sides of Figure 8's collapse. *)

type t

val create :
  base:Base.t ->
  mu_hot_bps:float ->
  mu_cold_bps:float ->
  mu_fb_bps:float ->
  ?sched:Softstate_sched.Scheduler.algorithm ->
  ?obs:Softstate_obs.Obs.t ->
  ?transport:Softstate_net.Transport.t ->
  ?nack_bits:int ->
  ?fb_loss:Softstate_net.Loss.t ->
  loss:Softstate_net.Loss.t ->
  link_rng:Softstate_util.Rng.t ->
  unit ->
  t
(** [nack_bits] defaults to 256. [fb_loss] defaults to lossless
    feedback, as in the paper's single-receiver simulations; pass it
    for asymmetric channels. The feedback queue holds the outbox's
    default of 1024 NACKs. *)

val sender : t -> Two_queue.t
val nacks_sent : t -> int
(** NACKs the receiver handed to the feedback channel. *)

val nacks_delivered : t -> int
(** NACKs that reached the sender. *)

val nacks_dropped_overflow : t -> int
(** NACKs lost to feedback-queue overflow (bandwidth starvation). *)

val fb_stats : t -> Softstate_net.Link.Stats.t
(** First-hop counters of the feedback channel (sent / delivered /
    dropped) — the conservation-oracle reading. *)

val reheats : t -> int
(** NACKs that actually moved a record back to the hot queue. *)
