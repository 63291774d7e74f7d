(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    generator value so that experiments are reproducible from a single
    integer seed and independent streams can be handed to independent
    model components (arrivals, losses, deaths, scheduling lotteries)
    without cross-contamination.

    Two algorithms are provided:
    - {!t} is SplitMix64 (Steele, Lea & Flood, OOPSLA'14), used as the
      default stream generator and to seed others.
    - {!Pcg32} is PCG-XSH-RR 64/32 (O'Neill, 2014), used where many
      small bounded draws are needed (e.g. lottery scheduling). *)

type t
(** A SplitMix64 generator. Mutable: every draw advances the state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed. Equal seeds
    yield equal streams. *)

(* lint: allow U001 (b) DESIGN.md §1 row 1: deterministic PRNG *)
val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a fresh generator whose stream
    is (for all practical purposes) independent of [g]'s. *)

val bits64 : t -> int64
(** [bits64 g] draws 64 uniformly random bits. *)

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

module Pcg32 : sig
  type t

  (* lint: allow U001 (b) DESIGN.md §1 row 1: PCG32 generator *)
  val create : seed:int64 -> stream:int64 -> t
  (** [create ~seed ~stream] makes a PCG32 generator; distinct
      [stream] values give statistically independent sequences even
      under equal seeds. *)

  (* lint: allow U001 (b) DESIGN.md §1 row 1: PCG32 generator *)
  val next : t -> int32
  (** [next g] draws 32 random bits. *)

  (* lint: allow U001 (b) DESIGN.md §1 row 1: PCG32 generator *)
  val int : t -> int -> int
  (** [int g n] draws uniformly in [\[0,n)], [n > 0], without modulo
      bias. *)
end
