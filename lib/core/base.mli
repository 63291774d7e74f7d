(** State and bookkeeping shared by every announce/listen variant.

    A base instance owns the publisher table, the subscriber copies
    (one per receiver; single-receiver protocols use receiver 0), the
    consistency tracker and the update/death processes. Protocol
    modules ({!Open_loop}, {!Two_queue}, {!Feedback}, {!Multicast})
    supply only their queueing/scheduling structure through the two
    hooks. *)

type announcement = {
  key : Record.key;
  version : Record.version;
  seq : int;  (** channel sequence number, stamped by the protocol *)
}

(** How records leave the live set (paper §2: "each record is also
    associated with a lifetime"). The analytic model of §3
    approximates expiry with a fixed per-service death probability;
    the simulation studies need genuinely bounded lifetimes or the
    live set is unstable whenever λ/p_d exceeds the channel rate. *)
type death_spec =
  | Per_service of float
      (** Bernoulli(p_d) at every service completion — Table 1 *)
  | Lifetime_fixed of float
      (** deterministic time-to-live from insertion, seconds *)
  | Lifetime_exp of float
      (** exponentially distributed lifetime with the given mean *)

val death_to_string : death_spec -> string
(** Round-trippable text form: ["service:P"], ["fixed:TTL"] or
    ["exp:MEAN"], floats rendered exactly ([%.17g]). *)

val death_of_string : string -> (death_spec, string) result
(** Inverse of {!death_to_string}. Total: returns [Error] for
    malformed text and for any value {!create} would reject — a
    probability outside (0,1], a lifetime not above 0, or a
    non-finite number. *)

(** Receiver-side soft-state expiry: the operational definition of
    soft state from the paper's introduction ("a pending timer ...
    reset upon receipt of each refresh message"). Timeouts follow the
    scalable-timers approach (Sharma et al., discussed in §7): each
    receiver estimates the per-record refresh interval with an EWMA of
    observed gaps and expires a record after [multiple] estimated
    intervals of silence. Records heard only once are not expired (no
    gap estimate yet) — the death process or explicit withdrawal
    covers them.

    Two timer disciplines share those semantics and one
    struct-of-arrays receiver store (a few words per copy, indexed by
    the record's table slot). Under either, a stale copy is reclaimed
    at sender death, when the record's slot is recycled.
    {!Refresh_timeout} is the periodic sweep: O(live keys) per sweep,
    with expiry observed at the first scan after the deadline (strict
    [>] test). {!Refresh_wheel} runs per-key timers on the engine
    calendar: at most one event per (receiver, key), pushed back
    lazily when it fires early, so a refresh costs no calendar
    operation and expiry fires at the deadline itself ([now -
    last_heard >= multiple * gap]). A timer whose deadline is not
    before its key's death time, known at birth under the lifetime
    specs, is never put on the calendar: it could not fire before the
    death. The name is historical; scenario strings keep it. *)
type expiry_spec =
  | No_expiry
  | Refresh_timeout of {
      multiple : float;      (** timeout = multiple × estimated gap *)
      sweep_period : float;  (** how often receivers scan for silence *)
    }
  | Refresh_wheel of {
      multiple : float;      (** timeout = multiple × estimated gap *)
    }

val expiry_to_string : expiry_spec -> string
(** Round-trippable text form: ["none"], ["refresh:M:P"] or
    ["wheel:M"], floats rendered exactly ([%.17g]). *)

val expiry_of_string : string -> (expiry_spec, string) result
(** Inverse of {!expiry_to_string}; also accepts ["sweep:M:P"] as an
    alias for ["refresh:M:P"]. Total: returns [Error] for malformed
    text and for any value {!create} would reject — a multiple not
    above 1, a sweep period not above 0, or a non-finite number. *)

type t

val create :
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  workload:Workload.t ->
  death:death_spec ->
  ?receivers:int ->
  ?expiry:expiry_spec ->
  tracker:Consistency.t ->
  unit ->
  t
(** [rng] is split internally into independent arrival, death and
    update streams. [receivers] defaults to 1 and must match the
    tracker's. [expiry] defaults to {!No_expiry}. *)

val set_hooks :
  t -> on_arrival:(Record.t -> unit) -> on_death:(Record.t -> unit) -> unit
(** [on_arrival] fires for inserts and for updates of an existing key
    (protocols typically (re)queue the record hot); [on_death] fires
    when the death process kills a record, so protocols can purge
    their queues lazily or eagerly. Must be set before {!start}. *)

val start : t -> unit
(** Begin the Poisson update process (and expiry sweeps, if any). *)

val engine : t -> Softstate_sim.Engine.t
val table : t -> Table.t
val receiver_count : t -> int

(* lint: allow U001 (a) used by test "sweep reclaims at death" *)
val receiver_version : t -> receiver:int -> Record.key -> Record.version option
(** The subscriber's stored version for the key, if any. *)

(* lint: allow U001 (a) used by test "deliver" *)
val is_matching : t -> receiver:int -> Record.t -> bool
(** Whether that subscriber currently holds the record's version. *)

val announce_of : t -> seq:int -> Record.t -> announcement
(** Build the wire announcement for a record's current version and
    count the transmission (redundant iff every receiver already
    matches). *)

val deliver : t -> now:float -> receiver:int -> announcement -> unit
(** Subscriber-side receipt: store the version if newer, update the
    tracker, refresh the expiry timer, and sample receive latency on
    the first arrival of the sender's current version at any receiver.
    Stale or dead-key announcements are absorbed silently — that is
    soft state. *)

val death_draw : t -> now:float -> Record.t -> bool
(** Called by protocols at service completion. Under {!Per_service}
    this is the Bernoulli(p_d) draw: on death the record leaves the
    table, the tracker is told, and [on_death] fires. Under the
    lifetime specs it never kills (expiry timers do) and returns
    [false]. *)

(* lint: allow U001 (a) used by test "kill" *)
val kill : t -> now:float -> Record.key -> unit
(** Explicitly expire a key (used by lifetime-based workloads and
    tests). No-op if not live. *)

val false_expiries : t -> int
(** Receiver-side expiries of records that were still live at the
    sender — consistency lost to an over-eager timeout. *)

val stale_purged : t -> int
(** Receiver copies of records already dead at the sender that the
    expiry timers would have collected — the garbage collection soft
    state is supposed to provide. Every copy is reclaimed at sender
    death; only copies with a gap estimate (heard at least twice,
    which under {!Refresh_wheel} is a copy with an armed timer) count,
    at the reclaim, under both disciplines. Always 0 under
    {!No_expiry}. *)
