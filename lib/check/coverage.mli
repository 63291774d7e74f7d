(** Coverage map for the coverage-guided fuzzer.

    Three dimensions, each a bucket → hit-count table:

    - {b features}: static scenario-shape buckets from
      {!Scenario.features} — what the generator {e produced};
    - {b events}: trace-event kinds observed in run outcomes — what the
      simulation {e did};
    - {b branches}: oracle code paths exercised while checking — what
      the checker {e saw}.

    The map is deterministic and serializable: {!to_string} is sorted
    and byte-stable, and [of_string (to_string t)] round-trips
    exactly, so coverage tables can be persisted across fuzz runs and
    diffed in CI. *)

type t

val create : unit -> t
(** Empty map. *)

(** {1 Recording} *)

(* lint: allow U001 (a) used by test "coverage serialization roundtrip" *)
val note_event : t -> string -> unit
val note_branch : t -> string -> unit

val note_scenario : t -> Scenario.t -> unit
(** Record every {!Scenario.features} bucket of the scenario. *)

val note_outcome : t -> Scenario.outcome -> unit
(** Record the {!Softstate_obs.Trace.kind} of every memory-trace
    event in the outcome. *)

(** {1 Inspection} *)

val seen_features : t -> string list
(** Sorted distinct feature buckets hit so far. *)

val seen_events : t -> string list
val seen_branches : t -> string list

(* lint: allow U001 (a) used by test "guided beats uniform" *)
val feature_count : t -> int
(** [List.length (seen_features t)], without building the list. *)

val unseen_features : t -> string list
(** Catalogue entries not yet hit — what the guided generator should
    steer toward. *)

val event_catalogue : string list
(** Every non-[Custom] trace-event kind, sorted. *)

val feature_fraction : t -> float
(** Fraction of {!Scenario.feature_catalogue} hit, in [\[0, 1\]]. *)

(** {1 Persistence} *)

val to_string : t -> string
(** One ["dim\tbucket\tcount"] line per entry, sorted by dimension
    then bucket — equal maps serialize byte-identically. *)

(* lint: allow U001 (a) used by test "coverage serialization roundtrip" *)
val of_string : string -> (t, string) result
(** Exact inverse of {!to_string}; blank lines are ignored. *)

val report : t -> string
(** Human-readable multi-line summary: per-dimension hit/total
    fractions, per-bucket counts, and MISSING lines for catalogue
    entries not yet covered. *)
