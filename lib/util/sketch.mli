(** Streaming quantile sketch (Greenwald-Khanna, SIGMOD 2001).

    Summarises an unbounded stream of floats in
    O((1/epsilon) log(epsilon * n)) space while answering any quantile
    query with rank error at most [epsilon * n]: the value returned for
    quantile [q] has true rank within [epsilon * n] of
    [1 + floor (q * (n - 1))].

    Determinism contract: the sketch state — and therefore every query
    answer — is a pure function of [epsilon] and the sequence of finite
    values added, in order. No randomness, no wall clock, no hash-order
    dependence. Identical streams yield bit-identical answers.
    Non-finite samples (nan, infinities) are not part of a stream's
    ordered values; they are ignored. *)

type t

val create : unit -> t
(** [create ()] makes an empty sketch whose relative rank-error bound
    [epsilon] is 0.01. *)

val add : t -> float -> unit
(** [add t x] appends [x] to the stream. Amortised O(log(1/epsilon) +
    summary size); worst case one buffer sort + merge. Non-finite [x]
    is ignored. *)

val quantile : t -> float -> float
(** [quantile t q] returns a stream value whose rank is within
    [epsilon * n] of [1 + floor (q * (n - 1))] where [n = count t].
    Returns [nan] when the sketch is empty. [q] outside [0, 1] raises
    [Invalid_argument]. [quantile t 0.0] and [quantile t 1.0] are the
    exact minimum and maximum. *)

val count : t -> int
(** Number of finite samples added. *)

val rank_error : t -> float
(** [rank_error t = epsilon t *. float_of_int (count t)]: the absolute
    rank-error bound currently guaranteed by {!quantile}. *)

(* lint: allow U001 (a) used by test "space bounded" *)
val size : t -> int
(** Number of summary tuples currently retained (excludes the insert
    buffer); useful for space-bound checks. *)
