(** Metrics registry: named probes, read at report time.

    A component that already keeps its own counters exposes them by
    registering a probe per quantity; the registry only enumerates
    them ({!snapshot}), in registration order. Nothing is counted
    twice and the hot path never touches the registry. *)

type t
(** The registry. *)

val create : unit -> t

val probe : t -> string -> (now:float -> float) -> unit
(** [probe t name read] registers the metric [name]: [read ~now] is
    called at snapshot time. Re-registering a name replaces its
    closure and keeps its place in the registration order. *)

val snapshot : t -> now:float -> (string * float) list
(** Every metric, in registration order, read at [now]. *)

(* lint: allow U001 (a) used by test "snapshot order" *)
val get : t -> string -> now:float -> float option

val to_json : t -> now:float -> string
(** One JSON object mapping metric names to values. *)
