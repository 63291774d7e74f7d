(** Random variate generation on top of {!Rng}.

    Each sampler takes the generator explicitly; none keeps hidden
    state, so samplers compose freely and remain reproducible. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** [uniform g ~lo ~hi] draws uniformly in [\[lo, hi)]. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential g ~rate] draws from Exp(rate) by inversion; mean is
    [1 /. rate]. [rate] must be positive. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** [pareto g ~shape ~scale] draws from a Pareto distribution with
    minimum [scale] and tail index [shape] (both positive). *)

val zipf_approx : Rng.t -> n:int -> s:float -> int
(** [zipf_approx g ~n ~s] draws a rank in [\[1, n\]] from the
    continuous power-law approximation of Zipf(s): inverse CDF of the
    density proportional to [x ** -.s] on [\[1, n+1)], floored. O(1)
    per draw with a single uniform, so [n] may change between draws
    (a live key table under churn). Rank probabilities are the exact
    continuous-bin masses — slightly smoother at the head than the
    discrete law, same tail exponent. [s] must be non-negative
    ([s = 0] degenerates to uniform over ranks). *)

val burst_interarrival :
  Rng.t ->
  rate:float ->
  mult:float ->
  period:float ->
  dwell:float ->
  now:float ->
  float
(** [burst_interarrival g ~rate ~mult ~period ~dwell ~now] is the time
    from absolute time [now] to the next arrival of a piecewise
    Poisson process that runs at [rate *. mult] inside the burst
    windows [\[k*period, k*period + dwell)] (anchored at t = 0) and at
    [rate] outside them. Sampled by hazard inversion with exactly one
    uniform draw, like {!exponential}. [rate], [mult], [period] must
    be positive; [dwell] in [\[0, period\]]; [now] non-negative.
    [dwell = 0] or [mult = 1] degenerate to plain Exp(rate). *)

module Zipf_table : sig
  type t

  val create : n:int -> s:float -> t
  (** Precompute the CDF table once; [draw] is then O(log n). *)

  val draw : t -> Rng.t -> int
end
