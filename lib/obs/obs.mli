(** Observability context: one metrics registry plus one trace sink,
    threaded through component constructors as an optional argument.
    A component given a context registers probes over the counters it
    keeps anyway and emits trace events; given none, it emits
    nothing. *)

type t

val create : ?trace:Trace.t -> unit -> t
(** Fresh registry; [trace] defaults to {!Trace.null}. *)

val metrics : t -> Metrics.t

val trace_of : t option -> Trace.t
(** [Trace.null] for [None] — lets constructors store an
    always-present sink. *)
