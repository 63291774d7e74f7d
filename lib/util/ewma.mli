(** Exponentially weighted moving averages.

    Used by receiver reports to smooth measured loss fractions and by
    the SSTP allocator to smooth rate estimates. Two flavours:
    sample-indexed (fixed gain per observation) and time-decayed
    (gain derived from the time elapsed since the previous sample, so
    irregularly spaced observations are weighted consistently). *)

type t

val create : alpha:float -> t
(** [create ~alpha] makes a sample-indexed EWMA with gain [alpha] in
    (0, 1]: [avg <- alpha * x + (1 - alpha) * avg]. *)

val add : t -> float -> unit
val value : t -> float
(** Current average; [nan] before the first sample. *)

val is_initialised : t -> bool

module Timed : sig
  type t

  (* lint: allow U001 (b) DESIGN.md §1 row 2: EWMA *)
  val create : half_life:float -> t
  (** [create ~half_life] makes a time-decayed average whose weight on
      history halves every [half_life] time units. *)

  (* lint: allow U001 (b) DESIGN.md §1 row 2: EWMA *)
  val add : t -> now:float -> float -> unit
  (** Observations must arrive with non-decreasing [now]. *)

  (* lint: allow U001 (b) DESIGN.md §1 row 2: EWMA *)
  val value : t -> float
end
