(** Publisher update workloads (paper §2).

    The update process adds or touches records in the publisher's
    table. The paper parameterises it by λ, the average table update
    rate in announcement-bandwidth units (kb/s); with fixed-size
    announcements that is a Poisson record-arrival process of rate
    [λ_bits / size_bits] per second. A fraction of arrivals may
    update an existing live key instead of inserting a new one —
    equivalent for the consistency metric, but it keeps the live set
    (and hence the cold-queue length) bounded differently, which the
    `ablate` benches explore.

    The arrival {!shape} generalises the paper's time-homogeneous
    Poisson process to production-shaped load: {!Flash_crowd} runs the
    same mean rate through periodic burst windows (rate × [mult] for
    [dwell] seconds out of every [period]) and skews update targets
    toward popular keys with a Zipf([zipf_s]) rank draw over the live
    table. [Poisson] is the default and is draw-for-draw identical to
    the historical behaviour. *)

type shape =
  | Poisson  (** time-homogeneous arrivals, the paper's model *)
  | Flash_crowd of {
      mult : float;    (** burst rate multiplier, > 0 *)
      period : float;  (** burst cycle length in seconds, > 0 *)
      dwell : float;   (** burst duration per cycle, in [0, period] *)
      zipf_s : float;
        (** Zipf exponent for update-target popularity over the live
            table; 0 means uniform (the Poisson behaviour) *)
    }

type t = private {
  arrival_rate : float;  (** records per second (long-run mean) *)
  size_bits : int;       (** announcement size per record *)
  update_fraction : float;
    (** probability an arrival touches an existing key (when one is
        live) rather than inserting a new key *)
  shape : shape;
}

val create :
  ?update_fraction:float ->
  ?shape:shape ->
  arrival_rate:float ->
  size_bits:int ->
  unit ->
  t
(** Direct construction in records/second. [update_fraction] defaults
    to 0 (pure insertions, the paper's model); [shape] defaults to
    [Poisson]. *)

val of_kbps :
  ?update_fraction:float ->
  ?shape:shape ->
  lambda_kbps:float ->
  size_bits:int ->
  unit ->
  t
(** [of_kbps ~lambda_kbps ~size_bits ()] converts the paper's λ: a
    record of [size_bits] bits arriving with mean rate
    [lambda_kbps * 1000 / size_bits] per second. *)

(* lint: allow U001 (a) used by test "of_kbps" *)
val lambda_bps : t -> float
(** Offered update load in bits/second, λ. *)

val shape : t -> shape

(* lint: allow U001 (a) used by test "interarrival mean" *)
val next_interarrival : t -> Softstate_util.Rng.t -> float
(** Draw the exponential gap to the next arrival at the long-run mean
    rate, ignoring any burst shape. Kept for callers that model the
    homogeneous process directly. *)

val next_interarrival_at : t -> now:float -> Softstate_util.Rng.t -> float
(** Draw the gap to the next arrival given the current absolute time.
    For [Poisson] this is exactly {!next_interarrival} (one uniform
    draw, byte-identical stream); for [Flash_crowd] it inverts the
    piecewise-constant burst hazard (also one uniform draw). *)

val is_update : t -> Softstate_util.Rng.t -> bool
(** Draw whether this arrival updates an existing key. *)

val shape_to_string : shape -> string
(** ["poisson"], or ["flash:MULT:PERIOD:DWELL:S"] with [%.17g] floats
    so the codec round-trips exactly. *)

val shape_of_string : string -> shape option
(** Inverse of {!shape_to_string}; [None] on syntax or range errors. *)
