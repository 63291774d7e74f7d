(** The fuzzing loop: generate scenarios from a seed chain, run them,
    check every oracle, and shrink failures to minimal reproducers.

    Deterministic end to end: the [seed] fixes the scenario sequence,
    each scenario fixes its own run, and shrinking is a pure function
    of the failing scenario — so a failure report is reproducible from
    the fuzzer command line alone. *)

type failure = {
  index : int;                       (** position in the seed chain *)
  scenario : Scenario.t;
  violations : Oracle.violation list;
  shrunk : Scenario.t;               (** locally minimal failing form *)
  shrunk_violations : Oracle.violation list;
  shrink_runs : int;                 (** candidate executions spent *)
  flight : Softstate_obs.Trace.event list;
      (** flight-recorder dump from the shrunk scenario's rerun: the
          last few hundred trace events before measurement stopped *)
}

type stats = {
  scenarios : int;  (** scenarios generated and checked *)
  runs : int;       (** total executions, including shrinking *)
  failures : failure list;  (** chronological *)
  coverage : Coverage.t;
      (** features of every scenario checked, trace-event kinds of
          every outcome, and oracle branches exercised *)
}

(* lint: allow U001 (a) used by test "seed chain prefix" *)
val scenario_seeds : seed:int -> count:int -> int array
(** The per-scenario generator seeds derived from the fuzzer seed —
    a pure function, so scenario [i] can be regenerated standalone. *)

val run :
  ?corrupt:(Scenario.outcome -> Scenario.outcome) ->
  ?oracles:string list ->
  ?max_shrink:int ->
  ?log:(string -> unit) ->
  ?on_progress:(int -> unit) ->
  ?guided:bool ->
  seed:int ->
  count:int ->
  unit ->
  stats
(** [run ~seed ~count ()] fuzzes [count] scenarios.

    [corrupt] post-processes every outcome before the oracles see it
    (also during shrinking) — the mutation hook used to smoke-test
    that the oracles actually catch planted bugs. [oracles] filters by
    name ([[]] = all, including replay); raises [Invalid_argument] on
    an unknown name. [max_shrink] bounds candidate executions per
    failure (default 200). [log] receives one JSON line per failure.
    [on_progress] is called with each completed scenario index.

    [guided] turns on coverage guidance: scenario [i] is chosen among
    4 sequential draws from its seed-chain rng,
    keeping the draw that touches the most feature buckets not yet in
    the run's coverage map. The first draw is exactly the unguided
    scenario, so [guided:false] (default) remains byte-identical to
    the historical stream. *)

(* lint: allow U001 (a) used by test "guided beats uniform" *)
val feature_coverage :
  ?guided:bool ->
  ?candidates:int ->
  seed:int ->
  count:int ->
  unit ->
  Coverage.t
(** Generation-only: the coverage map of a [count]-scenario chain's
    features, without executing any scenario — the cheap way to
    compare guided against uniform generation at equal count.
    [candidates] defaults to {!run}'s 4. *)

val check_scenario :
  ?corrupt:(Scenario.outcome -> Scenario.outcome) ->
  ?oracles:string list ->
  Scenario.t ->
  Oracle.violation list
(** Run one scenario through the oracle battery ([--replay]). *)

val reproducer : failure -> string
(** One command line that replays the shrunk scenario exactly: its
    {!Scenario.to_string} form (full-precision floats) quoted after
    [fuzz_cli --replay]. *)
