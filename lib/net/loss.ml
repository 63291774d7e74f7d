module Rng = Softstate_util.Rng

type ge_state = Good | Bad

type kind =
  | Bernoulli of float
  | Gilbert of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
      mutable state : ge_state;
    }
  | Deterministic of { period : int; mutable phase : int }
  | Controlled of { mutable p : float }

type t = kind

let check_prob name p =
  (* negated so NaN fails too *)
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Loss.%s: probability out of [0,1]" name)

let bernoulli p =
  check_prob "bernoulli" p;
  Bernoulli p

let gilbert_elliott ~p_good_to_bad ~p_bad_to_good ~loss_good ~loss_bad =
  check_prob "gilbert_elliott" p_good_to_bad;
  check_prob "gilbert_elliott" p_bad_to_good;
  check_prob "gilbert_elliott" loss_good;
  check_prob "gilbert_elliott" loss_bad;
  Gilbert
    { p_gb = p_good_to_bad; p_bg = p_bad_to_good; loss_good; loss_bad;
      state = Good }

let deterministic ~period =
  if period < 1 then invalid_arg "Loss.deterministic: period must be >= 1";
  Deterministic { period; phase = 0 }

let never = Bernoulli 0.0

let controlled () =
  let cell = Controlled { p = 0.0 } in
  let set x =
    match cell with
    | Controlled c -> c.p <- Float.max 0.0 (Float.min 1.0 x)
    | _ -> assert false
  in
  (cell, set)

let drop t rng =
  match t with
  | Bernoulli p -> Rng.bernoulli rng p
  | Gilbert g ->
      let p_loss = match g.state with Good -> g.loss_good | Bad -> g.loss_bad in
      let lost = Rng.bernoulli rng p_loss in
      let p_flip = match g.state with Good -> g.p_gb | Bad -> g.p_bg in
      if Rng.bernoulli rng p_flip then
        g.state <- (match g.state with Good -> Bad | Bad -> Good);
      lost
  | Deterministic d ->
      d.phase <- (d.phase + 1) mod d.period;
      d.phase = 0
  | Controlled c -> Rng.bernoulli rng c.p

let mean_rate = function
  | Bernoulli p -> p
  | Gilbert g ->
      (* stationary distribution of the two-state chain *)
      let denom = g.p_gb +. g.p_bg in
      if Float.equal denom 0.0 then g.loss_good (* absorbing Good start *)
      else
        let pi_bad = g.p_gb /. denom in
        ((1.0 -. pi_bad) *. g.loss_good) +. (pi_bad *. g.loss_bad)
  | Deterministic d -> 1.0 /. float_of_int d.period
  | Controlled c -> c.p
