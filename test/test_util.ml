(* Unit and property tests for Softstate_util. *)

module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist
module Stats = Softstate_util.Stats
module Heap = Softstate_util.Heap
module Ewma = Softstate_util.Ewma
module Ring = Softstate_util.Ring
module Codec = Softstate_util.Codec
module Sketch = Softstate_util.Sketch

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" x y;
  ignore (Rng.bits64 a);
  let x2 = Rng.bits64 a and y2 = Rng.bits64 b in
  Alcotest.(check bool) "desynchronised after extra draw" false (x2 = y2)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams disjoint" false (xs = ys)

let test_rng_split_reproducible () =
  (* splitting is a pure function of the parent state: two identical
     parents yield identical children, and the children stay in
     lock-step however they interleave with their parents — the
     property the parallel replication runner relies on. *)
  let a = Rng.create 13 and a' = Rng.create 13 in
  let b = Rng.split a and b' = Rng.split a' in
  for _ = 1 to 50 do
    Alcotest.(check int64) "children agree" (Rng.bits64 b) (Rng.bits64 b')
  done;
  ignore (Rng.bits64 a);
  (* drawing from one parent must not perturb either child *)
  Alcotest.(check int64) "child unaffected by parent draws" (Rng.bits64 b)
    (Rng.bits64 b')

let test_rng_split_siblings_differ () =
  let a = Rng.create 14 in
  let kids = List.init 4 (fun _ -> Rng.split a) in
  let streams =
    List.map (fun g -> List.init 20 (fun _ -> Rng.bits64 g)) kids
  in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool) "sibling streams differ" false (si = sj))
        streams)
    streams

let test_rng_float_range () =
  let g = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_float_mean () =
  let g = Rng.create 4 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float g
  done;
  check_close 0.01 "mean near 1/2" 0.5 (!sum /. float_of_int n)

let test_rng_int_uniform () =
  let g = Rng.create 5 in
  let counts = Array.make 7 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let i = Rng.int g 7 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_close 400.0 "bucket near uniform" (float_of_int (n / 7))
        (float_of_int c))
    counts

let test_rng_int_bounds () =
  let g = Rng.create 6 in
  for _ = 1 to 1000 do
    let x = Rng.int g 1 in
    Alcotest.(check int) "bound 1 gives 0" 0 x
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0))

let test_bernoulli_extremes () =
  let g = Rng.create 8 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli g 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli g 1.0)
  done

let test_bernoulli_rate () =
  let g = Rng.create 9 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  check_close 0.01 "rate near p" 0.3 (float_of_int !hits /. float_of_int n)

(* Golden SplitMix64 vector for seed 42: the exact draws every seeded
   experiment in the repository is built on. Any change to the state
   representation or the finaliser must leave these untouched. *)
let test_rng_golden_vector () =
  let g = Rng.create 42 in
  let bits n g = List.init n (fun _ -> Rng.bits64 g) in
  Alcotest.(check (list int64)) "bits64"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
      885919558081284366L; -353919125003956057L; 4337243929683858115L;
      5152897204343404489L; 2820384354626331986L ]
    (bits 8 g);
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.8578493c50ec1p-1; 0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1;
      0x1.c5be13f199e4dp-1 ]
    (List.init 4 (fun _ -> Rng.float g));
  Alcotest.(check (list int)) "int 1000" [ 723; 237; 138; 261 ]
    (List.init 4 (fun _ -> Rng.int g 1000));
  Alcotest.(check (list int64)) "split child"
    [ -7577576928798004994L; -7129335484078761893L; -1347403777677180204L;
      -1492596573710921250L ]
    (bits 4 (Rng.split g))

(* Minor words per draw over 10^5 draws. The state lives in bytes and
   is updated through unboxed primitives, so [bernoulli] allocates
   nothing. [bits64] and [float] return an int64 and a float, which a
   call from another module boxes (3 and 2 words) unless the compiler
   inlines it across modules; that box must be their whole cost — the
   draw itself allocates nothing. *)
let test_rng_draw_allocation () =
  let g = Rng.create 1 in
  let n = 100_000 in
  let per_draw f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let at_most name bound words =
    if words > bound +. 1e-3 then
      Alcotest.failf "%s: %.3f words per draw, expected at most %.0f" name
        words bound
  in
  at_most "bernoulli" 0.0 (per_draw (fun () -> ignore (Rng.bernoulli g 0.3)));
  at_most "float" 2.0 (per_draw (fun () -> ignore (Rng.float g)));
  at_most "bits64" 3.0 (per_draw (fun () -> ignore (Rng.bits64 g)))

let test_pcg32_reference () =
  (* Reference values from the pcg32-global demo: seed
     0x853c49e6748fea9bULL, stream 0xda3e39cb94b95bdbULL. *)
  let g = Rng.Pcg32.create ~seed:0x853c49e6748fea9bL ~stream:0x2b47fed88766bb05L in
  (* determinism: same params give same stream *)
  let h = Rng.Pcg32.create ~seed:0x853c49e6748fea9bL ~stream:0x2b47fed88766bb05L in
  for _ = 1 to 20 do
    Alcotest.(check int32) "pcg32 deterministic" (Rng.Pcg32.next g)
      (Rng.Pcg32.next h)
  done

let test_pcg32_streams_differ () =
  let a = Rng.Pcg32.create ~seed:1L ~stream:1L in
  let b = Rng.Pcg32.create ~seed:1L ~stream:2L in
  let xs = List.init 20 (fun _ -> Rng.Pcg32.next a) in
  let ys = List.init 20 (fun _ -> Rng.Pcg32.next b) in
  Alcotest.(check bool) "distinct streams" false (xs = ys)

let test_pcg32_int_bound () =
  let g = Rng.Pcg32.create ~seed:11L ~stream:3L in
  for _ = 1 to 10_000 do
    let x = Rng.Pcg32.int g 10 in
    if x < 0 || x >= 10 then Alcotest.fail "pcg32 int out of range"
  done

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_exponential_mean () =
  let g = Rng.create 20 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential g ~rate:4.0
  done;
  check_close 0.005 "mean 1/rate" 0.25 (!sum /. float_of_int n)

let test_exponential_positive () =
  let g = Rng.create 21 in
  for _ = 1 to 10_000 do
    if Dist.exponential g ~rate:0.5 < 0.0 then Alcotest.fail "negative"
  done

let test_geometric_mean () =
  let g = Rng.create 22 in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.geometric g ~p:0.25
  done;
  check_close 0.05 "mean 1/p" 4.0 (float_of_int !sum /. float_of_int n)

let test_geometric_support () =
  let g = Rng.create 23 in
  for _ = 1 to 10_000 do
    if Dist.geometric g ~p:0.9 < 1 then Alcotest.fail "support starts at 1"
  done;
  Alcotest.(check int) "p=1 is always 1" 1 (Dist.geometric g ~p:1.0)

let test_poisson_mean_small () =
  let g = Rng.create 24 in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.poisson g ~mean:3.5
  done;
  check_close 0.05 "poisson mean" 3.5 (float_of_int !sum /. float_of_int n)

let test_poisson_mean_large () =
  let g = Rng.create 25 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.poisson g ~mean:200.0
  done;
  check_close 1.0 "poisson large mean" 200.0 (float_of_int !sum /. float_of_int n)

let test_poisson_zero () =
  let g = Rng.create 26 in
  Alcotest.(check int) "mean 0" 0 (Dist.poisson g ~mean:0.0)

let test_normal_moments () =
  let g = Rng.create 27 in
  let n = 200_000 in
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    Stats.Welford.add acc (Dist.normal g ~mean:10.0 ~std:2.0)
  done;
  check_close 0.05 "normal mean" 10.0 (Stats.Welford.mean acc);
  check_close 0.05 "normal std" 2.0 (Stats.Welford.std acc)

let test_pareto_minimum () =
  let g = Rng.create 28 in
  for _ = 1 to 10_000 do
    if Dist.pareto g ~shape:2.0 ~scale:5.0 < 5.0 then
      Alcotest.fail "pareto below scale"
  done

let test_pareto_mean () =
  let g = Rng.create 29 in
  let n = 400_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.pareto g ~shape:3.0 ~scale:2.0
  done;
  (* mean = scale * shape / (shape - 1) = 3 *)
  check_close 0.05 "pareto mean" 3.0 (!sum /. float_of_int n)

let test_zipf_rank_ordering () =
  let g = Rng.create 30 in
  let table = Dist.Zipf_table.create ~n:10 ~s:1.2 in
  let counts = Array.make 11 0 in
  for _ = 1 to 50_000 do
    let r = Dist.Zipf_table.draw table g in
    if r < 1 || r > 10 then Alcotest.fail "zipf out of range";
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 8" true (counts.(2) > counts.(8))

let test_categorical () =
  let g = Rng.create 31 in
  let counts = Array.make 3 0 in
  for _ = 1 to 60_000 do
    let i = Dist.categorical g [| 1.0; 2.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "weight-1 share" (1.0 /. 6.0)
    (float_of_int counts.(0) /. 60_000.0);
  check_close 0.02 "weight-3 share" 0.5 (float_of_int counts.(2) /. 60_000.0)

let test_categorical_errors () =
  let g = Rng.create 32 in
  Alcotest.check_raises "empty" (Invalid_argument "Dist.categorical: empty weights")
    (fun () -> ignore (Dist.categorical g [||]));
  Alcotest.check_raises "zero sum"
    (Invalid_argument "Dist.categorical: weights sum to zero") (fun () ->
      ignore (Dist.categorical g [| 0.0; 0.0 |]))

(* The piecewise-Poisson flash process: arrivals inside burst windows
   should carry exactly their hazard share, and the long-run rate
   should match the cycle-averaged analytic rate. *)
let test_burst_interarrival_moments () =
  let g = Rng.create 33 in
  let rate = 2.0 and mult = 5.0 and period = 10.0 and dwell = 2.0 in
  let horizon = 3000.0 in
  let in_burst = ref 0 and total = ref 0 in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    let dt = Dist.burst_interarrival g ~rate ~mult ~period ~dwell ~now:!t in
    if dt < 0.0 then Alcotest.fail "negative interarrival";
    t := !t +. dt;
    if !t >= horizon then continue := false
    else begin
      incr total;
      if Float.rem !t period < dwell then incr in_burst
    end
  done;
  (* per cycle: rate*mult*dwell arrivals in burst, rate*(period-dwell)
     outside *)
  let burst_share =
    mult *. dwell /. ((mult *. dwell) +. (period -. dwell))
  in
  let mean_rate = rate *. ((mult *. dwell) +. (period -. dwell)) /. period in
  check_close 0.02 "burst share" burst_share
    (float_of_int !in_burst /. float_of_int !total);
  check_close 0.1 "long-run rate" mean_rate
    (float_of_int !total /. horizon)

(* Regression guard for the boundary stall: starting just below a
   burst boundary must still make progress (the hazard walk jumps to
   stored boundaries instead of advancing by a computed remainder that
   can fall below one ulp of the clock). *)
let test_burst_interarrival_boundary () =
  let g = Rng.create 34 in
  let period = 10.0 and dwell = 2.0 in
  List.iter
    (fun eps ->
      for k = 1 to 50 do
        let now = (float_of_int k *. period) -. eps in
        let dt =
          Dist.burst_interarrival g ~rate:5.0 ~mult:20.0 ~period ~dwell ~now
        in
        if not (Float.is_finite dt) || dt < 0.0 then
          Alcotest.failf "bad draw %g at now=%.17g" dt now
      done)
    [ 0.0; 1e-9; 1e-12; 4.4e-14; 0.25 ]

(* zipf_approx draws ranks with the continuous-bin masses
   P(k) = F(k+1) - F(k) for the power-law CDF on [1, n+1). *)
let test_zipf_approx_bin_masses () =
  let g = Rng.create 35 in
  let n = 5 and s = 1.2 in
  let cdf x =
    ((x ** (1.0 -. s)) -. 1.0)
    /. ((float_of_int (n + 1) ** (1.0 -. s)) -. 1.0)
  in
  let draws = 200_000 in
  let counts = Array.make (n + 2) 0 in
  for _ = 1 to draws do
    let r = Dist.zipf_approx g ~n ~s in
    if r < 1 || r > n then Alcotest.fail "zipf_approx out of range";
    counts.(r) <- counts.(r) + 1
  done;
  for k = 1 to n do
    let expect = cdf (float_of_int (k + 1)) -. cdf (float_of_int k) in
    check_close 0.02
      (Printf.sprintf "rank %d mass" k)
      expect
      (float_of_int counts.(k) /. float_of_int draws)
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_welford_known () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.Welford.mean w);
  check_close 1e-9 "variance" (32.0 /. 7.0) (Stats.Welford.variance w);
  check_float "min" 2.0 (Stats.Welford.min w);
  check_float "max" 9.0 (Stats.Welford.max w);
  Alcotest.(check int) "count" 8 (Stats.Welford.count w)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Welford.mean w));
  check_float "variance 0" 0.0 (Stats.Welford.variance w);
  check_float "ci 0" 0.0 (Stats.Welford.confidence95 w)

let test_welford_merge () =
  let all = Stats.Welford.create () in
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  let g = Rng.create 40 in
  for i = 1 to 1000 do
    let x = Rng.float g *. 10.0 in
    Stats.Welford.add all x;
    Stats.Welford.add (if i mod 2 = 0 then a else b) x
  done;
  let merged = Stats.Welford.merge a b in
  check_close 1e-9 "merged mean" (Stats.Welford.mean all)
    (Stats.Welford.mean merged);
  check_close 1e-6 "merged variance" (Stats.Welford.variance all)
    (Stats.Welford.variance merged);
  Alcotest.(check int) "merged count" 1000 (Stats.Welford.count merged)

let test_timeweighted_piecewise () =
  let tw = Stats.Timeweighted.create () in
  Stats.Timeweighted.update tw ~now:0.0 ~value:1.0;
  Stats.Timeweighted.update tw ~now:4.0 ~value:0.0;
  (* 4 s at 1, then 6 s at 0 -> average 0.4 at t=10 *)
  check_close 1e-9 "time average" 0.4 (Stats.Timeweighted.average tw ~now:10.0)

let test_timeweighted_starts_at_first_update () =
  let tw = Stats.Timeweighted.create ~start:0.0 () in
  Stats.Timeweighted.update tw ~now:5.0 ~value:1.0;
  check_close 1e-9 "window opens at first update" 1.0
    (Stats.Timeweighted.average tw ~now:10.0)

let test_timeweighted_reversal_rejected () =
  let tw = Stats.Timeweighted.create () in
  Stats.Timeweighted.update tw ~now:5.0 ~value:1.0;
  Alcotest.check_raises "reversed"
    (Invalid_argument "Timeweighted.update: time reversed") (fun () ->
      Stats.Timeweighted.update tw ~now:4.0 ~value:0.0)

let test_histogram_basic () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -1.0; 10.0; 25.0 ];
  Alcotest.(check int) "count" 7 (Stats.Histogram.count h);
  Alcotest.(check int) "bin0" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "bin1" 2 (Stats.Histogram.bin_count h 1);
  Alcotest.(check int) "bin9" 1 (Stats.Histogram.bin_count h 9);
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h)

let test_histogram_quantile () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int (i mod 100))
  done;
  let median = Stats.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median near 50" true (median > 45.0 && median < 55.0)

let test_series_thinning () =
  let s = Stats.Series.create ~capacity:16 () in
  for i = 0 to 9999 do
    Stats.Series.add s ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  let pts = Stats.Series.to_list s in
  Alcotest.(check bool) "bounded" true (List.length pts <= 32);
  let times = List.map fst pts in
  let sorted = List.sort compare times in
  Alcotest.(check (list (float 0.0))) "kept in time order" sorted times

(* ------------------------------------------------------------------ *)
(* Sketch *)

let test_sketch_empty () =
  let s = Sketch.create () in
  Alcotest.(check int) "count" 0 (Sketch.count s);
  Alcotest.(check bool) "nan" true (Float.is_nan (Sketch.quantile s 0.5))

let test_sketch_small_exact () =
  (* with eps * n < 1 the permitted rank error is zero: answers are
     exact order statistics *)
  let s = Sketch.create ~epsilon:0.01 () in
  List.iter (Sketch.add s) [ 7.0; 1.0; 9.0; 3.0; 5.0 ];
  check_float "min" 1.0 (Sketch.quantile s 0.0);
  check_float "median" 5.0 (Sketch.quantile s 0.5);
  check_float "max" 9.0 (Sketch.quantile s 1.0)

let test_sketch_drops_non_finite () =
  let s = Sketch.create () in
  List.iter (Sketch.add s) [ 1.0; nan; 2.0; infinity; 3.0; neg_infinity ];
  Alcotest.(check int) "count" 3 (Sketch.count s);
  Alcotest.(check int) "dropped" 3 (Sketch.dropped s);
  check_float "median" 2.0 (Sketch.quantile s 0.5)

let test_sketch_space_bounded () =
  (* 10^5 samples at eps = 0.01 must stay well under the exact-storage
     size — the whole point of the summary *)
  let g = Rng.create 92 in
  let s = Sketch.create ~epsilon:0.01 () in
  for _ = 1 to 100_000 do
    Sketch.add s (Rng.float g)
  done;
  ignore (Sketch.quantile s 0.5);
  Alcotest.(check bool) "summary small" true (Sketch.size s < 1000)

(* Exact rank interval of [v] in sorted array [a]: 1-based ranks
   [lo, hi] where it could sit among duplicates; a value absent from
   the stream gets an empty interval at its insertion point. *)
let rank_interval a v =
  let n = Array.length a in
  let lt = ref 0 and le = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < v then incr lt;
    if a.(i) <= v then incr le
  done;
  (!lt + 1, !le)

let qcheck_sketch_rank_error =
  QCheck.Test.make ~name:"sketch quantiles within eps*n rank error"
    ~count:50
    QCheck.(pair (int_bound 0xFFFFF) (int_range 50 3000))
    (fun (seed, n) ->
      let epsilon = 0.02 in
      let g = Rng.create (succ seed) in
      let s = Sketch.create ~epsilon () in
      let values = Array.init n (fun _ -> Rng.float g) in
      Array.iter (Sketch.add s) values;
      let sorted = Array.copy values in
      Array.sort Float.compare sorted;
      let err = int_of_float (epsilon *. float_of_int n) in
      List.for_all
        (fun q ->
          let v = Sketch.quantile s q in
          let r = 1 + int_of_float (q *. float_of_int (n - 1)) in
          let lo, hi = rank_interval sorted v in
          (* answered value must be a stream value whose rank interval
             comes within err of the target rank *)
          lo <= hi && lo - err <= r && r <= hi + err)
        [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

let qcheck_sketch_deterministic =
  QCheck.Test.make ~name:"sketch is a pure function of the stream"
    ~count:50
    QCheck.(pair (int_bound 0xFFFFF) (int_range 10 2000))
    (fun (seed, n) ->
      let stream () =
        let g = Rng.create (succ seed) in
        let s = Sketch.create ~epsilon:0.05 () in
        for _ = 1 to n do
          Sketch.add s (Rng.float g)
        done;
        List.map (Sketch.quantile s) [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ]
      in
      stream () = stream ())

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  let g = Rng.create 50 in
  for _ = 1 to 500 do
    Heap.insert h ~key:(Rng.float g) ()
  done;
  let rec drain last n =
    match Heap.pop h with
    | None -> n
    | Some (k, ()) ->
        if k < last then Alcotest.fail "heap order violated";
        drain k (n + 1)
  in
  Alcotest.(check int) "drained all" 500 (drain neg_infinity 0)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.insert h ~key:1.0 "a";
  Heap.insert h ~key:1.0 "b";
  Heap.insert h ~key:1.0 "c";
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "fifo 1" "a" (pop ());
  Alcotest.(check string) "fifo 2" "b" (pop ());
  Alcotest.(check string) "fifo 3" "c" (pop ())

let test_heap_random_mixed_ops () =
  let h = Heap.create () in
  let g = Rng.create 51 in
  let last = ref neg_infinity in
  for i = 1 to 2000 do
    if Rng.float g < 0.6 || Heap.is_empty h then begin
      (* keys never precede the last pop, as in an event calendar *)
      Heap.insert h ~key:(!last +. Rng.float g) i
    end
    else
      match Heap.pop h with
      | Some (k, _) ->
          if k < !last then Alcotest.fail "order violated during mixed ops";
          last := k
      | None -> Alcotest.fail "heap empty"
  done;
  (* drain and check order *)
  let rec drain last =
    match Heap.pop h with
    | None -> ()
    | Some (k, _) ->
        if k < last then Alcotest.fail "order violated after mixed ops";
        drain k
  in
  drain !last

let test_heap_clear () =
  let h = Heap.create () in
  Heap.insert h ~key:1.0 ();
  Heap.clear h;
  Alcotest.(check int) "empty" 0 (Heap.length h);
  Alcotest.(check bool) "nothing to pop" true (Heap.pop h = None);
  Alcotest.(check int) "no top" (-1) (Heap.top h)

let test_heap_clear_shrinks_and_resets () =
  let h = Heap.create () in
  for i = 0 to 4_999 do
    Heap.insert h ~key:(float_of_int i) i
  done;
  Alcotest.(check bool) "grew past shrink threshold" true (Heap.capacity h > 256);
  Heap.clear h;
  Alcotest.(check int) "empty after clear" 0 (Heap.length h);
  Alcotest.(check bool) "capacity shrunk" true (Heap.capacity h <= 256);
  (* the calendar is fully reusable: FIFO tie order restarts cleanly *)
  Heap.insert h ~key:1.0 1;
  Heap.insert h ~key:1.0 2;
  (match Heap.peek h with
  | Some (k, v) ->
      Alcotest.(check (float 0.0)) "peek key" 1.0 k;
      Alcotest.(check int) "fifo restarts" 1 v
  | None -> Alcotest.fail "heap empty after reuse");
  Alcotest.(check int) "reused length" 2 (Heap.length h)

(* Model check: drive the heap through a long random interleaving of
   insert / pop / peek / clear and compare every observable against a
   naive sorted-list reference. Keys are drawn from 8 distinct values
   so FIFO tie-breaking is exercised constantly; half the pops go
   through the engine's zero-allocation slot protocol. *)
let test_heap_model_check () =
  let h = Heap.create () in
  let g = Rng.create 99 in
  (* model: live entries as (key, seq, id) *)
  let model = ref [] in
  let seq = ref 0 in
  let next_id = ref 0 in
  let model_min () =
    List.fold_left
      (fun best ((k, s, _) as e) ->
        match best with
        | None -> Some e
        | Some (bk, bs, _) ->
            if k < bk || (k = bk && s < bs) then Some e else best)
      None !model
  in
  let drop_entry (_, s, _) =
    model := List.filter (fun (_, s', _) -> s' <> s) !model
  in
  (* pop through the slot protocol: top, top_key, drop_top, then
     slot_value on the freed slot *)
  let slot_pop () =
    let slot = Heap.top h in
    if slot < 0 then None
    else begin
      let k = Heap.top_key h in
      Heap.drop_top h;
      Some (k, Heap.slot_value h slot)
    end
  in
  for _step = 1 to 20_000 do
    let r = Rng.float g in
    if r < 0.55 then begin
      (* insert with a tie-prone key *)
      let key = float_of_int (Rng.int g 8) in
      let id = !next_id in
      incr next_id;
      Heap.insert h ~key id;
      model := (key, !seq, id) :: !model;
      incr seq
    end
    else if r < 0.95 then begin
      (* pop must agree with the reference minimum *)
      let popped = if Rng.bool g then Heap.pop h else slot_pop () in
      match (popped, model_min ()) with
      | None, None -> ()
      | Some (k, v), Some ((mk, _, mid) as e) ->
          Alcotest.(check (float 0.0)) "pop key" mk k;
          Alcotest.(check int) "pop value" mid v;
          drop_entry e
      | Some _, None -> Alcotest.fail "heap popped but model empty"
      | None, Some _ -> Alcotest.fail "heap empty but model not"
    end
    else if r < 0.985 then begin
      match (Heap.peek h, model_min ()) with
      | None, None -> ()
      | Some (k, v), Some (mk, _, mid) ->
          Alcotest.(check (float 0.0)) "peek key" mk k;
          Alcotest.(check int) "peek value" mid v;
          Alcotest.(check (option (float 0.0))) "min_key" (Some mk)
            (Heap.min_key h)
      | _ -> Alcotest.fail "peek disagrees on emptiness"
    end
    else begin
      Heap.clear h;
      model := []
    end;
    Alcotest.(check int) "length tracks model" (List.length !model)
      (Heap.length h)
  done;
  (* final drain stays sorted and FIFO-stable *)
  let rec drain last =
    match (Heap.pop h, model_min ()) with
    | None, None -> ()
    | Some (k, v), Some ((mk, _, mid) as e) ->
        if k < last then Alcotest.fail "final drain out of order";
        Alcotest.(check (float 0.0)) "drain key" mk k;
        Alcotest.(check int) "drain value" mid v;
        drop_entry e;
        drain k
    | _ -> Alcotest.fail "drain length mismatch"
  in
  drain neg_infinity

(* ------------------------------------------------------------------ *)
(* Ewma *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "nan before" true (Float.is_nan (Ewma.value e));
  Ewma.add e 10.0;
  check_float "first sample adopted" 10.0 (Ewma.value e)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.2 in
  for _ = 1 to 200 do
    Ewma.add e 5.0
  done;
  check_close 1e-9 "converged to constant" 5.0 (Ewma.value e)

let test_ewma_gain () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.add e 0.0;
  Ewma.add e 10.0;
  check_float "half step" 5.0 (Ewma.value e)

let test_ewma_timed_half_life () =
  let e = Ewma.Timed.create ~half_life:10.0 in
  Ewma.Timed.add e ~now:0.0 0.0;
  Ewma.Timed.add e ~now:10.0 10.0;
  (* decay 0.5 at one half-life: 0.5*0 + 0.5*10 = 5 *)
  check_close 1e-9 "half-life step" 5.0 (Ewma.Timed.value e)

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check bool) "push1" true (Ring.push r 1);
  Alcotest.(check bool) "push2" true (Ring.push r 2);
  Alcotest.(check bool) "push3" true (Ring.push r 3);
  Alcotest.(check bool) "full rejects" false (Ring.push r 4);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ring.pop r);
  Alcotest.(check bool) "space after pop" true (Ring.push r 4);
  Alcotest.(check (list int)) "order" [ 2; 3; 4 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for round = 1 to 10 do
    for i = 1 to 4 do
      Alcotest.(check bool) "push" true (Ring.push r (round * i))
    done;
    for i = 1 to 4 do
      Alcotest.(check (option int)) "pop" (Some (round * i)) (Ring.pop r)
    done
  done;
  Alcotest.(check bool) "empty" true (Ring.is_empty r)

let test_ring_peek_clear () =
  let r = Ring.create ~capacity:2 in
  Alcotest.(check (option int)) "peek empty" None (Ring.peek r);
  ignore (Ring.push r 9);
  Alcotest.(check (option int)) "peek" (Some 9) (Ring.peek r);
  Alcotest.(check int) "peek non-destructive" 1 (Ring.length r);
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xAB;
  Codec.Writer.u16 w 0xCDEF;
  Codec.Writer.u32 w 0xDEADBEEF;
  Codec.Writer.u64 w 0x0123456789ABCDEFL;
  Codec.Writer.f64 w 3.14159;
  Codec.Writer.string16 w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Codec.Reader.u8 r);
  Alcotest.(check int) "u16" 0xCDEF (Codec.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.Reader.u64 r);
  check_float "f64" 3.14159 (Codec.Reader.f64 r);
  Alcotest.(check string) "string16" "hello" (Codec.Reader.string16 r);
  Alcotest.(check int) "fully consumed" 0 (Codec.Reader.remaining r)

let test_codec_truncated () =
  let r = Codec.Reader.of_string "\x01" in
  Alcotest.check_raises "truncated" Codec.Truncated (fun () ->
      ignore (Codec.Reader.u32 r))

let test_codec_range_checks () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.Writer.u8: out of range")
    (fun () -> Codec.Writer.u8 w 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Codec.Writer.u16: out of range")
    (fun () -> Codec.Writer.u16 w (-1))

(* qcheck properties *)

let qcheck_codec_u32_roundtrip =
  QCheck.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.u32 w n;
      Codec.Reader.u32 (Codec.Reader.of_string (Codec.Writer.contents w)) = n)

let qcheck_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec string16 roundtrip" ~count:500
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.string16 w s;
      Codec.Reader.string16 (Codec.Reader.of_string (Codec.Writer.contents w))
      = s)

let qcheck_codec_f64_roundtrip =
  QCheck.Test.make ~name:"codec f64 roundtrip" ~count:500 QCheck.float
    (fun x ->
      let w = Codec.Writer.create () in
      Codec.Writer.f64 w x;
      let y = Codec.Reader.f64 (Codec.Reader.of_string (Codec.Writer.contents w)) in
      (Float.is_nan x && Float.is_nan y) || x = y)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.insert h ~key:k ()) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, ()) -> drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let qcheck_welford_mean_matches =
  QCheck.Test.make ~name:"welford mean equals arithmetic mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1e6))
    (fun xs ->
      let w = Stats.Welford.create () in
      List.iter (Stats.Welford.add w) xs;
      let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Stats.Welford.mean w -. mean) < 1e-6 *. (1.0 +. abs_float mean))

let qcheck_ring_fifo =
  QCheck.Test.make ~name:"ring preserves fifo order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let r = Ring.create ~capacity:(max 1 (List.length xs)) in
      List.iter (fun x -> ignore (Ring.push r x)) xs;
      Ring.to_list r = xs)

(* Variate tails: sample means must match the analytic first moment
   within a CLT band. Tolerances are 6–8 standard errors of the mean,
   so a false alarm needs a many-sigma fluke even across repeated
   randomized qcheck runs. *)

let sample_mean n draw =
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. draw ()
  done;
  !sum /. float_of_int n

let harmonic n s =
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (1.0 /. (float_of_int k ** s))
  done;
  !h

let qcheck_geometric_mean =
  QCheck.Test.make ~name:"geometric sample mean is 1/p" ~count:20
    QCheck.(pair (int_bound 0xFFFFF) (float_range 0.05 0.8))
    (fun (seed, p) ->
      let g = Rng.create (succ seed) in
      let n = 30_000 in
      let mean = sample_mean n (fun () -> float_of_int (Dist.geometric g ~p)) in
      let se = sqrt (1.0 -. p) /. p /. sqrt (float_of_int n) in
      abs_float (mean -. (1.0 /. p)) < (6.0 *. se) +. 1e-9)

let qcheck_pareto_mean =
  QCheck.Test.make ~name:"pareto sample mean is shape*scale/(shape-1)"
    ~count:20
    QCheck.(
      triple (int_bound 0xFFFFF) (float_range 3.0 6.0) (float_range 0.5 4.0))
    (fun (seed, shape, scale) ->
      let g = Rng.create (succ seed) in
      let n = 30_000 in
      let mean = sample_mean n (fun () -> Dist.pareto g ~shape ~scale) in
      let analytic = shape *. scale /. (shape -. 1.0) in
      let var =
        shape *. scale *. scale
        /. (((shape -. 1.0) ** 2.0) *. (shape -. 2.0))
      in
      let se = sqrt (var /. float_of_int n) in
      abs_float (mean -. analytic) < (8.0 *. se) +. 1e-9)

let qcheck_zipf_mean =
  QCheck.Test.make ~name:"zipf sample mean is H(n,s-1)/H(n,s)" ~count:20
    QCheck.(triple (int_bound 0xFFFFF) (int_range 5 50) (float_range 1.1 2.5))
    (fun (seed, n, s) ->
      let g = Rng.create (succ seed) in
      let tbl = Dist.Zipf_table.create ~n ~s in
      let draws = 30_000 in
      let mean =
        sample_mean draws (fun () -> float_of_int (Dist.Zipf_table.draw tbl g))
      in
      let hs = harmonic n s in
      let analytic = harmonic n (s -. 1.0) /. hs in
      let var = (harmonic n (s -. 2.0) /. hs) -. (analytic *. analytic) in
      let se = sqrt (var /. float_of_int draws) in
      abs_float (mean -. analytic) < (8.0 *. se) +. 1e-9)

let qcheck_split_stream_independent =
  (* a split child's stream is fixed at split time: however many draws
     the parent makes afterwards, the child replays identically *)
  QCheck.Test.make ~name:"split child unaffected by parent draws" ~count:200
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 20))
    (fun (seed, k) ->
      let draws g = List.init 10 (fun _ -> Rng.bits64 g) in
      let p1 = Rng.create seed in
      let c1 = Rng.split p1 in
      let reference = draws c1 in
      let p2 = Rng.create seed in
      let c2 = Rng.split p2 in
      for _ = 1 to k do
        ignore (Rng.bits64 p2)
      done;
      draws c2 = reference)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ qcheck_codec_u32_roundtrip; qcheck_codec_string_roundtrip;
        qcheck_codec_f64_roundtrip; qcheck_heap_sorts;
        qcheck_welford_mean_matches; qcheck_ring_fifo;
        qcheck_geometric_mean; qcheck_pareto_mean; qcheck_zipf_mean;
        qcheck_split_stream_independent; qcheck_sketch_rank_error;
        qcheck_sketch_deterministic ]
  in
  Alcotest.run "softstate_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split reproducible" `Quick test_rng_split_reproducible;
          Alcotest.test_case "split siblings differ" `Quick
            test_rng_split_siblings_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Slow test_rng_float_mean;
          Alcotest.test_case "int uniform" `Slow test_rng_int_uniform;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "golden vector" `Quick test_rng_golden_vector;
          Alcotest.test_case "draw allocation" `Quick test_rng_draw_allocation;
          Alcotest.test_case "pcg32 deterministic" `Quick test_pcg32_reference;
          Alcotest.test_case "pcg32 streams" `Quick test_pcg32_streams_differ;
          Alcotest.test_case "pcg32 int bound" `Quick test_pcg32_int_bound;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
          Alcotest.test_case "poisson mean small" `Slow test_poisson_mean_small;
          Alcotest.test_case "poisson mean large" `Slow test_poisson_mean_large;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "pareto minimum" `Quick test_pareto_minimum;
          Alcotest.test_case "pareto mean" `Slow test_pareto_mean;
          Alcotest.test_case "zipf ordering" `Slow test_zipf_rank_ordering;
          Alcotest.test_case "categorical shares" `Slow test_categorical;
          Alcotest.test_case "categorical errors" `Quick test_categorical_errors;
          Alcotest.test_case "burst interarrival moments" `Slow
            test_burst_interarrival_moments;
          Alcotest.test_case "burst interarrival boundary" `Quick
            test_burst_interarrival_boundary;
          Alcotest.test_case "zipf approx bin masses" `Slow
            test_zipf_approx_bin_masses;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford known values" `Quick test_welford_known;
          Alcotest.test_case "welford empty" `Quick test_welford_empty;
          Alcotest.test_case "welford merge" `Quick test_welford_merge;
          Alcotest.test_case "timeweighted piecewise" `Quick test_timeweighted_piecewise;
          Alcotest.test_case "timeweighted window" `Quick
            test_timeweighted_starts_at_first_update;
          Alcotest.test_case "timeweighted reversal" `Quick
            test_timeweighted_reversal_rejected;
          Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "series thinning" `Quick test_series_thinning;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "empty" `Quick test_sketch_empty;
          Alcotest.test_case "small exact" `Quick test_sketch_small_exact;
          Alcotest.test_case "drops non-finite" `Quick
            test_sketch_drops_non_finite;
          Alcotest.test_case "space bounded" `Quick test_sketch_space_bounded;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "mixed ops" `Quick test_heap_random_mixed_ops;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "clear shrinks and resets" `Quick
            test_heap_clear_shrinks_and_resets;
          Alcotest.test_case "model check vs sorted reference" `Slow
            test_heap_model_check;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "converges" `Quick test_ewma_converges;
          Alcotest.test_case "gain" `Quick test_ewma_gain;
          Alcotest.test_case "timed half life" `Quick test_ewma_timed_half_life;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "peek and clear" `Quick test_ring_peek_clear;
        ] );
      ( "codec",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_codec_roundtrip_scalars;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "range checks" `Quick test_codec_range_checks;
        ] );
      ("properties", qsuite);
    ]
