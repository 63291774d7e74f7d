(** Announce/listen to a multicast group with scalable feedback.

    The sender runs the hot/cold machinery of {!Two_queue} over a
    shared {!Softstate_net.Channel}: every served announcement is
    offered to each group member through that member's own loss
    process. Receivers detect losses as sequence gaps and NACK over a
    shared feedback channel.

    With a group, naive per-receiver NACKs implode: every member
    missing the same packet requests it. The paper points at slotting
    and damping ([11, 20] — SRM-style suppression) for SSTP's
    multicast mode; this module implements it for the core protocol:
    a receiver delays its NACK by a uniformly random slot and cancels
    it if it overhears another member's NACK for the same sequence
    number in the meantime (feedback is multicast too, so every
    member — and the sender — hears each NACK). *)

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
  ?suppression:bool ->
  ?nack_slot:float ->
  receiver_loss:(int -> Softstate_net.Loss.t) ->
  link_rng:Softstate_util.Rng.t ->
  unit ->
  t
(** [base] must have been created with the group's receiver count.
    [receiver_loss i] supplies receiver [i]'s loss process (each needs
    its own: loss processes are stateful). [suppression] (default
    true) enables slotting and damping with maximum delay [nack_slot]
    (default 0.5 s); with it off every receiver NACKs immediately —
    the implosion baseline. [nack_bits] defaults to 500; the shared
    feedback queue holds 4096 NACKs. *)

val sender : t -> Two_queue.t
val fanout : t -> Base.announcement Softstate_net.Transport.fanout

val nacks_wanted : t -> int
(** Loss detections that wanted a repair (before suppression). *)

val nacks_sent : t -> int
val nacks_suppressed : t -> int
(** Cancelled after overhearing another member's identical NACK. *)

val nacks_delivered : t -> int
val nack_overflows : t -> int

val fb_stats : t -> Softstate_net.Link.Stats.t
(** First-hop counters of the feedback channel (sent / delivered /
    dropped) — the conservation-oracle reading. *)

val reheats : t -> int
