(* The SplitMix64 finaliser inverted independently of [Rng], so tests
   can build a generator whose stream hits a chosen output: one that
   [Rng.int] rejects, to check [Rng.clean_draws] and the gossip
   kernel's use of it. *)

let gamma = 0x9E3779B97F4A7C15L

(* x c = 1 mod 2^(3 * 2^i) after i Newton steps from x = c *)
let odd_inverse c =
  List.fold_left (fun x _ -> Int64.(mul x (sub 2L (mul c x)))) c [ 1; 2; 3; 4; 5 ]

(* y = x lxor (x lsr k) gives x back by iterating x <- y lxor (x lsr k) *)
let unxorshift k y =
  let x = ref y in
  for _ = 1 to 63 / k do
    x := Int64.(logxor y (shift_right_logical !x k))
  done;
  !x

let unmix x =
  x |> unxorshift 31
  |> Int64.mul (odd_inverse 0x94D049BB133111EBL)
  |> unxorshift 27
  |> Int64.mul (odd_inverse 0xBF58476D1CE4E5B9L)
  |> unxorshift 30

(* The seed whose generator's [draws]-th raw draw outputs [output]
   ([Rng.create seed] starts from state [mix seed]); [None] when that
   seed does not fit an OCaml int. *)
let seed_reaching ~draws output =
  let seed = unmix Int64.(sub (unmix output) (mul (of_int draws) gamma)) in
  if Int64.of_int (Int64.to_int seed) = seed then Some (Int64.to_int seed)
  else None
