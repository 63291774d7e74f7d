(** SSTP over multicast: one sender, a group of receivers (§6).

    The data channel is a shared {!Softstate_net.Channel}: every
    transmitted envelope is offered to each member through that
    member's own loss process. Members run the ordinary
    {!Receiver} machinery; their repair requests pass through a
    slotting-and-damping stage before reaching the shared feedback
    channel — each query/NACK is delayed by a uniformly random slot
    and dropped if an identical request from another member was
    overheard meanwhile (feedback is multicast too). A suppressed
    member's retry timer re-offers the request later, so suppression
    never loses repairs, it only de-duplicates them.

    The sender is oblivious to the group: answering one member's
    repair heals everyone, because responses travel on the shared
    channel — the scaling argument for announce/listen repair. *)

type t

type config = {
  mu_total_bps : float;
  member_loss : int -> Softstate_net.Loss.t;
      (** per-member data-loss process (each needs its own instance) *)
  fb_loss : Softstate_net.Loss.t;
  mu_hot_bps : float;
  mu_cold_bps : float;
  mu_fb_bps : float;
  summary_period : float;
  repair_timeout : float;
  report_period : float;
  nack_slot : float;     (** max random delay before a repair request *)
  suppression : bool;    (** damping on overheard duplicates *)
}

val default_config : mu_total_bps:float -> config
(** Lossless members, 60/25/15 splits, 1 s summaries, 0.5 s slot,
    suppression on. *)

val create :
  ?obs:Softstate_obs.Obs.t ->
  ?transport:Softstate_net.Transport.t ->
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  config:config ->
  members:int ->
  unit ->
  t
(** [transport] (default single-hop) supplies the shared data fanout
    and the feedback outbox; over a
    {!Softstate_net.Topology} member [i] listens at the node the
    topology's attach policy assigns it. [obs] is threaded into the
    sender, every member receiver, and (when no [transport] is given)
    the default single-hop transport, so group runs emit the same
    Announce/Query/Nack/Remove trace stream a {!Session} does. *)

(* lint: allow U001 (a) used by test "member bounds" *)
val member : t -> int -> Receiver.t
(* lint: allow U001 (a) used by test "member bounds" *)
val member_count : t -> int

val publish : t -> path:string -> payload:string -> unit

val consistency : t -> float
(** Mean over members of the per-member leaf consistency. *)

val min_consistency : t -> float
(** The laggard member's consistency. *)

val converged : t -> bool
(** Every member's root digest equals the sender's. *)

val feedback_sent : t -> int
val feedback_suppressed : t -> int
val data_packets_served : t -> int
