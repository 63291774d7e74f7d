(* Order statistics and the spread-aware comparison verdict.

   Quartiles follow Python's [statistics.quantiles(values, n=4)] (the
   default "exclusive" method), so the ledger's numbers match what any
   other tool computing spreads from the same samples reports. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quartiles values] is (q1, q2, q3). A single sample is its own
   quartiles; an empty list gives nans. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let iqr values =
  let q1, _, q3 = quartiles values in
  q3 -. q1

(* Interquartile range as a share of the median. *)
let spread values =
  let q1, _, q3 = quartiles values in
  let m = median values in
  if Float.equal m 0.0 then if Float.equal q3 q1 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* How much [change] improves on [base]: positive is better. *)
let gain better ~base ~change =
  match better with Lower -> base -. change | Higher -> change -. base

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = {
  pairs : int;
  won : int;       (* pairs the change wins; ties count for neither side *)
  base_median : float;
  change_median : float;
  base_iqr : float;
  verdict : verdict;
}

(* The verdict for one (workload, metric) from two sample lists whose
   i-th entries form the i-th pair (runs alternated between the sides).

   - improved: the change wins at least 9/10 of the pairs and its
     median beats the parent's by more than the parent's IQR;
   - unresolved: the parent's spread (IQR over median) is wider than
     [bound], unless every change run beats every parent run;
   - worse: the change's median is worse than the parent's by more than
     [bound] times the parent's median;
   - unchanged otherwise. *)
let judge ~better ~bound ~base ~change =
  let pairs = min (List.length base) (List.length change) in
  let won =
    List.fold_left2
      (fun acc b c -> if gain better ~base:b ~change:c > 0.0 then acc + 1 else acc)
      0
      (List.filteri (fun i _ -> i < pairs) base)
      (List.filteri (fun i _ -> i < pairs) change)
  in
  let base_median = median base and change_median = median change in
  let base_iqr = iqr base in
  let improvement = gain better ~base:base_median ~change:change_median in
  let all_better =
    base <> [] && change <> []
    && List.for_all
         (fun c ->
           List.for_all (fun b -> gain better ~base:b ~change:c > 0.0) base)
         change
  in
  let verdict =
    if pairs > 0 && won * 10 >= pairs * 9 && improvement > base_iqr then
      Improved
    else if spread base > bound && not all_better then Unresolved
    else if -.improvement > bound *. Float.abs base_median then Worse
    else Unchanged
  in
  { pairs; won; base_median; change_median; base_iqr; verdict }
