(** Uniform facade over the proportional-share schedulers.

    Protocol code (hot/cold queues, data/feedback split) should not
    care {e which} sharing mechanism is in force — the paper treats
    lottery, WFQ and stride as interchangeable policies (§4) and the
    `ablate-sched` bench compares them. This module packs any of them
    behind one first-class value. *)

type t
type flow = int

type algorithm =
  | Lottery   (** randomised; needs an RNG *)
  | Stride    (** deterministic pass-based *)
  | Wfq       (** start-time fair queueing *)
  | Drr       (** deficit round robin *)

val algorithm_name : algorithm -> string
val all_algorithms : algorithm list

val create : ?rng:Softstate_util.Rng.t -> algorithm -> t
(** [create ~rng alg] packs a fresh scheduler. [rng] is required for
    {!Lottery} (absence raises [Invalid_argument]) and ignored
    otherwise. *)

val add_flow : t -> weight:float -> flow
(** Flows are numbered 0, 1, ... in registration order across all
    algorithms, so callers can keep their own flow tables. *)

val set_backlogged : t -> flow -> bool -> unit

val select : t -> flow option
(** Pick the next backlogged flow to serve. *)

val charge : t -> flow -> int -> unit
(** [charge t f size_bits] accounts the size of the packet just served
    from the flow. The size is an int so that it crosses the packed
    scheduler's closure without a float box: charging stride allocates
    nothing. *)
