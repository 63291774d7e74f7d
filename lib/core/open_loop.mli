(** The open-loop announce/listen protocol (paper §3).

    One FIFO transmission queue through which every live record
    circulates: a new record joins at the tail, and each service
    completion either kills the record (death probability) or
    re-enqueues it at the tail for its next periodic announcement —
    old and new data treated alike, exactly the analytic model whose
    closed forms live in [Softstate_queueing.Open_loop]. *)

type t

val create :
  base:Base.t ->
  mu_data_bps:float ->
  ?obs:Softstate_obs.Obs.t ->
  ?transport:Softstate_net.Transport.t ->
  loss:Softstate_net.Loss.t ->
  link_rng:Softstate_util.Rng.t ->
  unit ->
  t
(** Wires the protocol onto [base]'s engine and hooks; call
    {!Base.start} afterwards to begin the workload. The announcement
    channel is created through [transport] (default
    {!Softstate_net.Transport.single_hop}, a direct sender→receiver
    link — byte-identical to the pre-transport behaviour). With [obs]
    the link is instrumented as ["open_loop.data"] and every
    announcement emits an [Announce] trace event. *)

val unicast : t -> Softstate_net.Transport.unicast
(** The data channel's handle (stats, utilisation, kick). *)
