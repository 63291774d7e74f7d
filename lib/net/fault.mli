(** Deterministic fault schedules over a {!Topology}.

    A fault schedule is plain data — a list of timestamped
    {!action}s — applied to the topology's fault state through the
    engine calendar. All randomness is spent while {e compiling} a
    {!spec} into a schedule (never while the simulation runs), so a
    given seed always yields the same transition sequence, the same
    trace events, and the same drop counts, regardless of what the
    workload does.

    Specs also have a textual form for the CLI ([--faults]), a
    comma-separated list of:

    - [cable:I@T1-T2] — cable [I] down over [\[T1, T2)];
    - [node:I@T1-T2] — node [I] crashed over [\[T1, T2)];
    - [partition@T1-T2] — the upper half of the node ids (ids ≥ n/2)
      cut away over [\[T1, T2)], then healed;
    - [flap:RATE:MEAN] — Poisson cable flaps at [RATE] per second,
      each downtime exponential with mean [MEAN] seconds;
    - [churn:RATE:MEAN] — the same process over leaf nodes
      (crash/restart) — receiver churn;
    - [storm:COUNT:MEAN@T1-T2] — a correlated fault storm: [COUNT]
      cable outages all landing uniformly inside [\[T1, T2)], each
      downtime exponential with mean [MEAN];
    - [churnwave:PERIOD:FRAC:DOWN] — sustained receiver churn on a
      cadence: every [PERIOD] seconds crash a distinct random [FRAC]
      of the leaf receivers, restarting each [DOWN] seconds later. *)

type action =
  | Cable_down of int
  | Cable_up of int
  | Node_crash of int
  | Node_restart of int
  | Partition of int list  (** Cut this group away from the rest. *)
  | Heal  (** Restore every down cable. *)

type event = { at : float; action : action }

val install : Topology.t -> event list -> unit
(** Schedule every event on the topology's engine. Events may be
    given in any order; equal-time events fire in list order. Raises
    [Invalid_argument] on events scheduled before the engine's
    current time. *)

(** {1 Random schedule generators}

    Both draw every timestamp and target up front from [rng] in a
    fixed order and return the schedule as data. *)

(* lint: allow U001 (a) used by test "seeded schedule deterministic" *)
val flaps :
  rng:Softstate_util.Rng.t ->
  rate_per_s:float ->
  mean_downtime:float ->
  until:float ->
  Topology.t ->
  event list
(** Poisson process of cable flaps: at each arrival a uniformly
    chosen cable goes down, coming back after an exponential
    downtime (possibly beyond [until]). *)

(* lint: allow U001 (a) used by test "seeded schedule deterministic" *)
val churn :
  rng:Softstate_util.Rng.t ->
  rate_per_s:float ->
  mean_downtime:float ->
  until:float ->
  Topology.t ->
  event list
(** The same process over the topology's leaf nodes (crash then
    restart) — models receivers joining and leaving. The hub /
    source node 0 is never churned. *)

(** {1 Textual specs} *)

type spec =
  | Cable_window of { cable : int; from_ : float; till : float }
  | Node_window of { node : int; from_ : float; till : float }
  | Partition_window of { from_ : float; till : float }
  | Flap_process of { rate_per_s : float; mean_downtime : float }
  | Churn_process of { rate_per_s : float; mean_downtime : float }
  | Storm of { count : int; mean_downtime : float; from_ : float; till : float }
  | Churn_wave of { period : float; fraction : float; downtime : float }

(* lint: allow U001 (a) used by test "spec roundtrip" *)
val spec_of_string : string -> (spec, string) result
(** Parse one item of the grammar above. *)

val specs_of_string : string -> (spec list, string) result
(** Parse a comma-separated list (empty string → []). *)

val spec_to_string : spec -> string
(** Round-trips with {!spec_of_string}. *)

val check : nodes:int -> cables:int -> spec list -> (unit, string) result
(** Every [cable:]/[node:] window names a cable below [cables] and a
    node below [nodes]; the first that does not is the [Error]. The
    other specs draw their targets from the topology and always fit. *)

val compile :
  rng:Softstate_util.Rng.t ->
  until:float ->
  Topology.t ->
  spec list ->
  event list
(** Turn specs into a concrete schedule for this topology: windows
    become down/up (or crash/restart, or partition/heal) pairs,
    processes are expanded via {!flaps} / {!churn}. Raises
    [Invalid_argument] where {!check} gives an [Error]. *)
