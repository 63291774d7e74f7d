(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    generator value so that experiments are reproducible from a single
    integer seed and independent streams can be handed to independent
    model components (arrivals, losses, deaths, scheduling lotteries)
    without cross-contamination.

    The one algorithm is SplitMix64 (Steele, Lea & Flood, OOPSLA'14):
    every stream of every simulation, and every {!split} off one. *)

type t
(** A SplitMix64 generator. Mutable: every draw advances the state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split g] advances [g] and returns a fresh generator whose stream
    is (for all practical purposes) independent of [g]'s. *)

val bits64 : t -> int64
(** [bits64 g] draws 64 uniformly random bits. *)

val advance : t -> int -> unit
(** [advance g k] moves [g] past its next [k] raw draws in O(1): [g]
    is left where [k] calls of {!bits64} would leave it. Raises
    [Invalid_argument] if [k < 0]. *)

val clean_draws : t -> bound:int -> int
(** [clean_draws g ~bound] is a count [c] such that each of [g]'s
    next [c] raw draws, taken by [int g n] for any [n <= bound], is
    accepted: such an [int] call consumes exactly one raw draw, so
    [c] calls of it move [g] as {!advance}[ g c] does. [c] is the
    number of raw draws before the first whose top 62 bits reach
    [2^62 - bound + 1] (the only ones such an [int] can reject),
    saturating at [max_int]. It reads [g] without moving it,
    allocates nothing and takes O(bound) time. Raises
    [Invalid_argument] unless [1 <= bound <= 2^30]. *)

val float : t -> float
(** [float g] draws uniformly in [\[0, 1)] with 53-bit resolution. *)

val int : t -> int -> int
(** [int g n] draws uniformly in [\[0, n)]. [n] must be positive;
    rejection sampling removes modulo bias. *)

val bool : t -> bool
(** [bool g] draws a fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. [p] outside
    [\[0,1\]] is clamped. *)
