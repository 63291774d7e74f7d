(** Domain-parallel replication fan-out.

    Independent replications (each with its own engine and RNG stream)
    are spread across OCaml domains with a static index partition;
    results come back in index order, so the output — and anything
    merged from it in index order — is identical for every job count.

    The closure passed in must not share mutable state across calls
    (in particular, not a shared observability context): each index
    must be self-contained. *)

(** Per-domain wall-clock accounting for one fan-out. These numbers
    are out-of-band observations (they vary run to run and nothing
    derived from them may feed back into simulation state); they make
    a disappointing parallel speedup attributable — skew shows up as
    one domain's [wall_s] dwarfing the others'. *)
module Stats : sig
  (** How the fan-out actually executed: [Sequential] when it ran
      in-process on the calling domain (requested [jobs = 1], a
      single-item fan-out, or the single-available-domain fallback),
      [Domains] when helper domains were spawned. *)
  type mode = Sequential | Domains

  val mode_name : mode -> string
  (** ["sequential"] / ["domains"], for reports. *)

  type domain = {
    index : int;   (** worker index, [0 .. jobs-1]; 0 ran on the caller *)
    tasks : int;   (** replications this domain executed *)
    wall_s : float; (** wall seconds from the domain's first task to its last *)
  }

  type t = {
    jobs : int;    (** effective job count (1 in [Sequential] mode) *)
    mode : mode;
    domains : domain array (** in index order *)
  }

  val balance : t -> float
  (** Sum of per-domain wall over the slowest domain: [jobs] when
      perfectly balanced, approaching 1.0 when one domain serialises
      the sweep. *)
end

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [jobs <= 0] resolves
    to. *)

val map : ?jobs:int -> ?report:(Stats.t -> unit) -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] computes [| f 0; ...; f (n-1) |] across
    [min jobs n] domains. [jobs <= 0] means use all recommended
    domains; the default [jobs:1] runs sequentially on the calling
    domain, as does {e any} job count when only one domain is
    available ([recommended_jobs () = 1]) — spawning helpers there
    only adds timesharing overhead. Results are keyed by index, so
    the fallback is output-invisible; [Stats.mode] records which path
    ran. If any [f i] raises, all domains are joined first and one
    of the exceptions is re-raised (in which case [report] is not
    called). [report] receives the per-domain wall-time/task-count
    stats after every domain has been joined. *)

val map_list : ?jobs:int -> 'a list -> ('a -> 'b) -> 'b list
(** [map] over a list, preserving order. *)
