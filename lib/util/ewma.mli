(** Exponentially weighted moving average with a fixed gain per
    observation. SSTP's sender smooths the loss fractions of receiver
    reports with it. *)

type t

val create : alpha:float -> t
(** [create ~alpha] makes a sample-indexed EWMA with gain [alpha] in
    (0, 1]: [avg <- alpha * x + (1 - alpha) * avg]. *)

val add : t -> float -> unit
val value : t -> float
(** Current average; [nan] before the first sample. *)

val is_initialised : t -> bool
