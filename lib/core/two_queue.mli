(** Two-level transmission scheduling: hot and cold queues (paper §4).

    New (and freshly updated) records are announced from the "hot"
    foreground queue; once transmitted at least once they circulate in
    the "cold" background queue. The data bandwidth is shared between
    the two proportionally to [mu_hot : mu_cold] by a pluggable
    proportional-share scheduler (lottery / stride / WFQ / DRR), never
    strict priority, so cold items cannot starve. Unused hot
    bandwidth flows to the cold queue because scheduling is
    work-conserving. *)

type t

val create :
  base:Base.t ->
  mu_hot_bps:float ->
  mu_cold_bps:float ->
  ?sched:Softstate_sched.Scheduler.algorithm ->
  ?obs:Softstate_obs.Obs.t ->
  ?transport:Softstate_net.Transport.t ->
  loss:Softstate_net.Loss.t ->
  link_rng:Softstate_util.Rng.t ->
  unit ->
  t
(** The link rate is [mu_hot_bps +. mu_cold_bps]; the two values also
    serve as the scheduler weights. [sched] defaults to stride. The
    data channel is created through [transport] (default
    {!Softstate_net.Transport.single_hop}). With [obs] the link is
    instrumented as ["two_queue.data"], hot sends emit [Announce],
    cold sends [Refresh], and NACK reheats [Repair]. Announce/Refresh
    events carry the record key and the announcement sequence number
    (which doubles as the packet correlation id); [Repair] events link
    back to the lost sequence via their causal parent. *)

val sent_hot : t -> int
val sent_cold : t -> int
val unicast : t -> Softstate_net.Transport.unicast

(**/**)

(** Internal surface shared with {!Feedback}; subject to change. *)

val create_queues :
  base:Base.t ->
  mu_hot_bps:float ->
  mu_cold_bps:float ->
  ?sched:Softstate_sched.Scheduler.algorithm ->
  ?obs:Softstate_obs.Obs.t ->
  sched_rng:Softstate_util.Rng.t ->
  unit ->
  t
(** Queue machinery and base hooks only; the caller must build a
    channel around {!fetch_packet}/{!serve_completion} and
    {!attach_unicast} it. *)

val attach_unicast : t -> Softstate_net.Transport.unicast -> unit

val attach_kick : t -> (unit -> unit) -> unit
(** For media other than a unicast handle (e.g. a multicast fanout):
    register how to wake the medium when work arrives. *)

val reheat :
  t -> now:float -> ?cause:int -> Record.key -> bool
(** Move a cold record to the hot queue (NACK response); [false] if
    the key is dead or already hot. [cause] is the sequence number of
    the lost announcement that triggered the repair; it is recorded as
    the causal parent of the [Repair] trace event (default
    {!Softstate_obs.Trace.no_id}). *)

val serve_completion : t -> now:float -> Record.key -> unit
val fetch_packet : t -> Base.announcement Softstate_net.Packet.t option
