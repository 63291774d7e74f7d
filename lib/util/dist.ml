let uniform g ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo +. ((hi -. lo) *. Rng.float g)

let exponential g ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  let u = Rng.float g in
  (* 1 - u is in (0,1], so log never sees 0 *)
  -.log (1.0 -. u) /. rate

let pareto g ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Dist.pareto: shape and scale must be positive";
  let u = Rng.float g in
  scale /. ((1.0 -. u) ** (1.0 /. shape))

module Zipf_table = struct
  type t = { cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Dist.Zipf_table.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
      cdf.(i) <- !total
    done;
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. !total
    done;
    { cdf }

  let draw t g =
    let u = Rng.float g in
    (* binary search for the first index with cdf >= u *)
    let rec search lo hi =
      if lo >= hi then lo + 1
      else
        let mid = (lo + hi) / 2 in
        if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (Array.length t.cdf - 1)
end

(* Continuous power-law approximation of a Zipf draw: inverse CDF of
   the density proportional to x^-s on [1, n+1), floored to a rank.
   One uniform draw, no table, so the support size can change between
   draws (a live key table under churn). The rank probabilities are
   exactly the continuous-bin masses
   P(k) = (F(k+1) - F(k)), slightly smoother than the discrete Zipf
   head but with the same tail exponent. *)
let zipf_approx g ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf_approx: n must be positive";
  if s < 0.0 then invalid_arg "Dist.zipf_approx: s must be non-negative";
  let u = Rng.float g in
  let x =
    if Float.abs (s -. 1.0) < 1e-9 then
      (* s = 1: F(x) = ln x / ln (n+1) *)
      exp (u *. log (float_of_int (n + 1)))
    else begin
      let e = 1.0 -. s in
      (1.0 +. (u *. ((float_of_int (n + 1) ** e) -. 1.0))) ** (1.0 /. e)
    end
  in
  min n (max 1 (int_of_float x))

(* Time to the next arrival of a Poisson process whose rate switches
   between [rate *. mult] (inside the burst windows
   [k*period, k*period + dwell)) and [rate] (outside), starting the
   clock at absolute time [now]. Standard hazard inversion: draw
   E ~ Exp(1) with a single uniform, then walk the piecewise-constant
   rate segments until the accumulated hazard spends E. One RNG draw
   per arrival, like {!exponential}. *)
let burst_interarrival g ~rate ~mult ~period ~dwell ~now =
  if rate <= 0.0 then invalid_arg "Dist.burst_interarrival: rate must be positive";
  if mult <= 0.0 then invalid_arg "Dist.burst_interarrival: mult must be positive";
  if period <= 0.0 then invalid_arg "Dist.burst_interarrival: period must be positive";
  if dwell < 0.0 || dwell > period then
    invalid_arg "Dist.burst_interarrival: dwell must lie in [0, period]";
  if now < 0.0 then invalid_arg "Dist.burst_interarrival: now must be non-negative";
  let u = Rng.float g in
  let budget = ref (-.log (1.0 -. u)) in
  (* Walk segments by cycle index with explicit boundary jumps. Never
     advance time by a computed remainder: near a boundary the
     remainder can drop below one ulp of the clock, and [t +. seg = t]
     would stall the walk. Jumping to the stored boundary instead
     guarantees at most two iterations per cycle. *)
  let k = ref (int_of_float (Float.floor (now /. period))) in
  let pos = ref now in
  let arrival = ref Float.nan in
  while Float.is_nan !arrival do
    let cycle_start = float_of_int !k *. period in
    let burst_end = cycle_start +. dwell in
    let cycle_end = cycle_start +. period in
    let p = Float.max !pos cycle_start in
    let in_burst = p < burst_end in
    let r = if in_burst then rate *. mult else rate in
    let seg_end = if in_burst then burst_end else cycle_end in
    let seg = Float.max 0.0 (seg_end -. p) in
    let spend = r *. seg in
    if spend >= !budget then arrival := p +. (!budget /. r)
    else begin
      budget := !budget -. spend;
      if in_burst then pos := burst_end
      else begin
        pos := cycle_end;
        incr k
      end
    end
  done;
  Float.max 0.0 (!arrival -. now)
