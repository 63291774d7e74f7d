(** Invariant oracles over fuzzer scenario outcomes.

    Each oracle inspects one {!Scenario.outcome} and returns the
    invariant violations it found (empty list = clean). The catalogue:

    - [conservation] — packets are conserved everywhere we can count
      them: the result triple satisfies
      [0 <= sent - delivered - dropped <= #servers]; in topology mode
      the substrate probes satisfy the exact queueing identity
      [injected = blackholed + overflowed + queued + entered-service];
      and per trace source, every [Packet_sent] is matched by exactly
      one [Packet_dropped]/[Packet_delivered] (times the subscriber
      count for the single-hop multicast channel, and excluding
      blackhole drops tagged [detail="fault"]).
    - [clock] — trace timestamps are non-decreasing (the engine never
      runs backwards) and stay within [\[0, horizon\]].
    - [consistency] — c(t) readings are probabilities: the average,
      final and series values all lie in [\[0, 1\]], and the recorded
      series is monotone in time.
    - [counters] — cross-field sanity: NACK counters form a funnel
      (delivered <= sent <= wanted, suppressed <= wanted), utilisation
      is a fraction, single-hop runs report zero fault activity, and
      first deliveries never exceed transmissions x receivers.
    - [convergence] — an SSTP session over moderate loss reaches
      digest agreement within the grace window {!Scenario.run} allows.
    - [legality] — after an SSTP run, both namespaces' cached digest
      state passes {!Sstp.Namespace.check}: every fresh interior node's
      terms, XOR accumulator, digest and leaf count agree with its
      children.
    - [backlog] — the NACK-repair loop is stable: the NACK issue-rate
      series (from {!Softstate_obs.Lifecycle.nack_depth_series}) must
      not end the run in a storm that built up during it — a final
      quarter that carries substantial volume, dwarfs both early
      quarters, and has not decayed from the run's peak. That is the
      signature of an undamped repair loop whose branching ratio
      crossed one (every lost retransmission breeds fresh NACKs faster
      than repairs retire them).
    - [replay] — re-running the same scenario yields a structurally
      identical outcome (bit-identical determinism).
    - [jobs] — [Experiment.run_many] summaries are identical for
      [jobs:1] and [jobs:2] (only checked for short scenarios).

    [replay] and [jobs] re-execute scenarios, so they are only
    included when {!all} / {!select} are given the [rerun] runner
    (the fuzzer passes its own, which applies the same corruption
    hook under mutation testing). *)

type violation = { oracle : string; message : string }

type t = { name : string; check : Scenario.outcome -> violation list }

val names : string list
(** Every oracle name, in catalogue order. *)

val branches : string list
(** Every branch bucket an oracle can report through [note] — the
    catalogue the fuzzer's coverage map scores branch coverage
    against. *)

val select :
  ?note:(string -> unit) ->
  ?rerun:(Scenario.t -> Scenario.outcome) ->
  string list ->
  (t list, string) result
(** Filter by name; [[]] selects everything. Unknown names error. *)

val check : t list -> Scenario.outcome -> violation list
(** Run every oracle, concatenating violations in catalogue order. *)

(** {1 Backlog stability measure}

    Exposed so the fuzz CLI can sweep a slotting/damping parameter
    grid and report a stability frontier with the same measure the
    [backlog] oracle enforces. *)

type backlog_stats = {
  b_final : int;            (** outstanding in the last observed bucket *)
  b_nack_quarters : int array;
      (** NACK/query issues per run quarter, length 4 *)
  b_repair_total : int;
  b_nack_total : int;
}

val backlog_measure : Scenario.outcome -> backlog_stats option
(** [None] for non-core outcomes, overwritten traces, or runs whose
    feedback channel went quiet too early to judge. *)

val backlog_unstable : backlog_stats -> bool
(** The thresholded instability predicate the [backlog] oracle
    applies: the final quarter's NACK volume is substantial, dwarfs
    both early quarters, and has not decayed from the run's peak
    quarter — onset without recovery. A steady state — however
    loaded — reads as flat and passes; a fault-window spike decays
    before the horizon and passes; only a storm the run ends inside
    of fails. *)
