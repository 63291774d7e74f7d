(** Online statistics used by the consistency and latency trackers.

    All accumulators are single-pass and O(1) memory unless stated
    otherwise, so they can run inside long simulations without
    retaining per-sample data. *)

module Welford : sig
  (** Numerically stable running mean / variance (Welford 1962). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of the samples so far; [nan] if no sample was added. *)

  val confidence95 : t -> float
  (** Half-width of the normal-approximation 95% confidence interval
      of the mean ([1.96 σ/√n], σ the unbiased sample standard
      deviation); [0.] with fewer than two samples. *)
end

module Timeweighted : sig
  (** Time-weighted average of a piecewise-constant signal, e.g. the
      instantaneous consistency c(t) between simulation events. *)

  type t

  val create : unit -> t
  (** The window opens at the first {!update}. *)

  val update : t -> now:float -> value:float -> unit
  (** [update t ~now ~value] records that the signal holds [value]
      from [now] onwards; the previous value is integrated over
      [now - last_update]. Calls must have non-decreasing [now]. *)

  val average : t -> now:float -> float
  (** Time average from the first update to [now], integrating the
      current value up to [now]. [nan] before the first update. *)
end

module Series : sig
  (** Bounded reservoir of (time, value) points for plotting
      time-series such as Figure 8. Space is O(capacity) regardless of
      how many samples are added: once capacity is exceeded, every
      second retained point is dropped and the sampling stride
      doubles, so every k-th sample is kept (systematic thinning,
      preserving shape). *)

  type t

  val create : unit -> t
  (** Capacity 4096 points. *)

  val add : t -> time:float -> value:float -> unit

  val to_list : t -> (float * float) list
  (** Oldest first. *)
end
