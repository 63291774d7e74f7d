(* Greenwald-Khanna streaming quantile summary (SIGMOD 2001).

   The summary is a sorted list of tuples (v, g, delta): v is a sample
   value, g the gap between this tuple's minimum possible rank and the
   previous tuple's, delta the uncertainty in this tuple's rank. The
   structure maintains the invariant g + delta <= floor(2*eps*n) for
   every interior tuple, which bounds the rank error of any quantile
   answer by eps*n while keeping only O((1/eps) log(eps*n)) tuples.

   Inserts go through a fixed buffer of ceil(1/(2*eps)) values that is
   sorted and batch-merged into the summary when full — the standard
   practical variant: amortised cost per sample is O(log(1/eps) +
   summary/buffer), independent of n.

   Determinism contract: the summary is a pure function of the
   sequence of finite values added, in order. There is no
   randomness, no wall-clock input, and no dependence on hash order;
   two sketches fed the same stream return bit-identical answers to
   every query. Non-finite samples (nan, +/-inf) are ignored — a
   quantile of a stream is only defined over its ordered values. *)

type tuple = { v : float; g : int; d : int }

(* The relative rank-error bound. *)
let epsilon = 0.01

type t = {
  mutable n : int; (* finite samples merged into the summary *)
  mutable tuples : tuple list; (* ascending by v *)
  mutable len : int; (* List.length tuples, maintained incrementally *)
  buf : float array;
  mutable buf_len : int;
}

let create () =
  let cap = max 16 (int_of_float (ceil (1.0 /. (2.0 *. epsilon)))) in
  { n = 0; tuples = []; len = 0;
    buf = Array.make cap 0.0; buf_len = 0 }

let count t = t.n + t.buf_len
let size t = t.len

(* floor(2 eps n): the capacity every interior tuple's g + delta must
   respect, and twice the guaranteed rank-error bound. *)
let band t = int_of_float (2.0 *. epsilon *. float_of_int t.n)

(* Merge the sorted buffer into the summary. [t.n] is bumped per value
   so each new tuple's delta reflects the stream length at its own
   insertion, exactly as element-wise GK would. New extremes get
   delta 0 (their rank is exact at insertion); interior values get the
   loosest legal delta, max 0 (band - 1), trading accuracy headroom
   for compressibility. *)
let merge_sorted t values =
  let rec go old vals acc =
    match (old, vals) with
    | _, [] -> List.rev_append acc old
    | [], v :: vs ->
        (* past the old maximum: rank exact at insertion *)
        t.n <- t.n + 1;
        t.len <- t.len + 1;
        go [] vs ({ v; g = 1; d = 0 } :: acc)
    | o :: _, v :: vs when v < o.v ->
        t.n <- t.n + 1;
        t.len <- t.len + 1;
        let d = if acc = [] then 0 else max 0 (band t - 1) in
        go old vs ({ v; g = 1; d } :: acc)
    | o :: os, vals -> go os vals (o :: acc)
  in
  t.tuples <- go t.tuples values []

(* Right-merge pass: tuple i is absorbed into its right neighbour when
   the combined g + delta stays within the band. The rightmost tuple
   always survives (merges keep the right value), and the leftmost is
   held out of the fold, so the exact minimum and maximum are never
   lost. *)
let compress t =
  match t.tuples with
  | [] | [ _ ] | [ _; _ ] -> ()
  | first :: second :: rest ->
      let b = band t in
      let rec go acc prev = function
        | [] -> List.rev (prev :: acc)
        | cur :: more ->
            if prev.g + cur.g + cur.d <= b then begin
              t.len <- t.len - 1;
              go acc { cur with g = prev.g + cur.g } more
            end
            else go (prev :: acc) cur more
      in
      t.tuples <- first :: go [] second rest

let flush t =
  if t.buf_len > 0 then begin
    let batch = Array.sub t.buf 0 t.buf_len in
    t.buf_len <- 0;
    Array.sort Float.compare batch;
    merge_sorted t (Array.to_list batch);
    compress t
  end

let add t x =
  if Float.is_finite x then begin
    t.buf.(t.buf_len) <- x;
    t.buf_len <- t.buf_len + 1;
    if t.buf_len = Array.length t.buf then flush t
  end

let rank_error t = epsilon *. float_of_int (count t)

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sketch.quantile: q in [0,1]";
  flush t;
  if t.n = 0 then nan
  else begin
    (* target rank in 1..n; the first tuple whose max possible rank
       overshoots r + eps*n means its predecessor is within eps*n *)
    let r = 1 + int_of_float (q *. float_of_int (t.n - 1)) in
    let err = int_of_float (epsilon *. float_of_int t.n) in
    let rec go rmin last = function
      | [] -> last.v
      | u :: rest ->
          let rmin = rmin + u.g in
          if rmin + u.d > r + err then last.v else go rmin u rest
    in
    match t.tuples with
    | [] -> nan
    | u :: rest -> if u.g + u.d > r + err then u.v else go u.g u rest
  end
