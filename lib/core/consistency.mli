(** Empirical consistency and latency measurement (paper §2.1).

    The instantaneous system consistency c(t) is the fraction of live
    (record, receiver) pairs where the receiver holds the sender's
    current version; with one receiver this is the paper's fraction of
    matching live records, and with a multicast group it averages
    per-receiver consistency as the per-key metric c(k,t) does over
    processes. The average system consistency E[c(t)] is its time
    average. The tracker maintains the live/matching counters
    incrementally — protocols report every state change and the
    tracker integrates c(t) exactly between events.

    The paper leaves c(t) undefined when the live set is empty; the
    analysis implicitly scores an empty system as zero (see
    DESIGN.md §4), so the policy is explicit here. *)

type empty_policy =
  | Empty_is_consistent  (** c(t) = 1 when L(t) = ∅: vacuous truth *)
  | Empty_is_zero        (** c(t) = 0: matches the paper's E\[c\] = s·ρ *)
  | Empty_holds_last     (** keep the last defined value *)

type t

val create :
  ?empty_policy:empty_policy ->
  ?record_series:bool ->
  ?receivers:int ->
  now:float ->
  unit ->
  t
(** [create ~now ()] starts measuring at time [now]. Default policy is
    {!Empty_is_consistent}; [record_series] (default false) retains a
    thinned (time, c(t)) series for time-series figures; [receivers]
    (default 1) sizes the per-record pair count for multicast
    groups. *)

(** Protocol-facing state-change notifications. Each takes the event
    time; times must be non-decreasing. *)

val on_birth : t -> now:float -> unit
(** A record entered the live set (inconsistent at the receiver). *)

val on_update : t -> now:float -> matching:int -> unit
(** A live record's version was bumped by the publisher; [matching]
    is the number of receivers that held the old version. *)

val on_match : t -> now:float -> unit
(** One receiver obtained the sender's current version of a live
    record it did not have. *)

val on_unmatch : t -> now:float -> unit
(** One receiver lost its matching copy without the record dying —
    e.g. a premature soft-state expiry at that receiver. *)

val on_death : t -> now:float -> matching:int -> unit
(** A record left the live set; [matching] receivers held it. *)

val on_first_delivery : t -> now:float -> born:float -> unit
(** A version was received for the first time; records the receive
    latency [now -. born]. *)

val on_transmission : t -> redundant:bool -> unit
(** Count one data transmission; [redundant] when the receiver already
    matched the record being announced. *)

(** Read-out. *)

(* lint: allow U001 (a) used by test "counts" *)
val live : t -> int
(* lint: allow U001 (a) used by test "deliver" *)
val matching : t -> int
(** Matching (record, receiver) pairs. *)

val receivers : t -> int

val instantaneous : t -> float
(** Current c(t) under the empty policy. *)

val average : t -> now:float -> float
(** E[c(t)] over the observation window so far. *)

val latency : t -> Softstate_util.Stats.Welford.t
(** Receive-latency accumulator (seconds). *)

val transmissions : t -> int

val redundancy : t -> float
(** Fraction of data transmissions that were redundant; [nan] before
    any transmission. *)

val series : t -> (float * float) list
(** The retained (time, c(t)) points; empty unless [record_series]. *)
