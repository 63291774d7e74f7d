(** Greedy scenario shrinking.

    Given a failing scenario and a predicate that re-runs a candidate
    and reports whether it still fails, walk a ladder of
    simplifications — halve the horizon, drop fault windows, prune
    receivers, simplify the topology toward [Single_hop], walk the
    protocol down toward open loop — and keep the first candidate at
    each step that still fails. The result is a locally minimal
    failing scenario: no single simplification in the ladder makes it
    pass. *)

(* lint: allow U001 (a) used by test "shrink candidates differ from parent" *)
val candidates : Scenario.t -> Scenario.t list
(** Strictly simpler variants, most aggressive first. Every candidate
    has a strictly smaller {!measure} than its parent. *)

(* lint: allow U001 (a) used by test "shrink candidates strictly decrease measure" *)
val measure : Scenario.t -> float
(** A scalar complexity every ladder rung strictly decreases —
    shrinking's termination argument, checked by a property test
    rather than trusted. *)

val shrink :
  fails:(Scenario.t -> bool) ->
  max_runs:int ->
  Scenario.t ->
  Scenario.t * int
(** [shrink ~fails ~max_runs s] assumes [fails s] already holds.
    Returns the shrunk scenario and the number of candidate runs
    spent (at most [max_runs]). *)
