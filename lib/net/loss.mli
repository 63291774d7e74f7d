(** Packet-loss processes.

    The paper's analysis uses a memoryless per-transmission loss
    probability and argues that the consistency metric depends only on
    the mean of the loss process. We provide a Bernoulli model for
    the analysis conditions and a two-state Gilbert–Elliott model to
    exercise that claim under bursty loss (bench experiment `burst`).

    A loss process is stateful (Gilbert–Elliott remembers its channel
    state), so each receiver gets its own instance. *)

type t

val bernoulli : float -> t
(** [bernoulli p] drops each packet independently with probability
    [p] ∈ [0, 1]. *)

val gilbert_elliott :
  p_good_to_bad:float ->
  p_bad_to_good:float ->
  loss_good:float ->
  loss_bad:float ->
  t
(** Two-state Markov channel: in the Good state packets drop with
    probability [loss_good], in Bad with [loss_bad]; after every
    packet the state flips with the given transition probabilities.
    All parameters in [0, 1]. *)

(* lint: allow U001 (a) used by test "deterministic" *)
val deterministic : period:int -> t
(** [deterministic ~period] drops exactly every [period]-th packet
    (period ≥ 1); handy for reproducible unit tests. [period = 1]
    drops everything. *)

val never : t
(** Lossless channel. *)

val controlled : unit -> t * (float -> unit)
(** [controlled ()] returns a Bernoulli process whose probability can
    be changed while the simulation runs — the tool for modelling
    network partitions (set 1.0) and healing (set back). The setter
    clamps to [0, 1]. {!mean_rate} reports the current setting. *)

val drop : t -> Softstate_util.Rng.t -> bool
(** [drop t rng] consumes one packet event and reports whether that
    packet is lost. *)

val mean_rate : t -> float
(** Long-run fraction of packets lost: the parameter for Bernoulli,
    the stationary average for Gilbert–Elliott, [1/period] for the
    deterministic process. *)
