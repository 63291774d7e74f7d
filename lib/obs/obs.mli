(** Observability context: one metrics registry plus one trace sink,
    threaded through component constructors as an optional argument.
    Components given no context keep their plain counters and emit
    nothing. *)

type t

val create : ?trace:Trace.t -> unit -> t
(** Fresh registry; [trace] defaults to {!Trace.null}. *)

val metrics : t -> Metrics.t
val trace : t -> Trace.t

val trace_of : t option -> Trace.t
(** [Trace.null] for [None] — lets constructors store an
    always-present sink. *)

val metrics_of : t option -> Metrics.t option
