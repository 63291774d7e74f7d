module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist

type shape =
  | Poisson
  | Flash_crowd of {
      mult : float;
      period : float;
      dwell : float;
      zipf_s : float;
    }

let validate_shape = function
  | Poisson -> ()
  | Flash_crowd { mult; period; dwell; zipf_s } ->
      (* negated comparisons, so NaN parameters are rejected too *)
      if not (mult > 0.0) then
        invalid_arg "Workload: flash-crowd mult must be positive";
      if not (period > 0.0) then
        invalid_arg "Workload: flash-crowd period must be positive";
      if not (dwell >= 0.0 && dwell <= period) then
        invalid_arg "Workload: flash-crowd dwell must lie in [0, period]";
      if not (zipf_s >= 0.0) then
        invalid_arg "Workload: flash-crowd zipf_s must be non-negative"

type t = {
  arrival_rate : float;
  size_bits : int;
  update_fraction : float;
  shape : shape;
}

let create ?(update_fraction = 0.0) ?(shape = Poisson) ~arrival_rate
    ~size_bits () =
  if arrival_rate <= 0.0 then
    invalid_arg "Workload.create: arrival rate must be positive";
  if size_bits <= 0 then invalid_arg "Workload.create: size must be positive";
  if update_fraction < 0.0 || update_fraction > 1.0 then
    invalid_arg "Workload.create: update fraction out of [0,1]";
  validate_shape shape;
  { arrival_rate; size_bits; update_fraction; shape }

let of_kbps ?update_fraction ?shape ~lambda_kbps ~size_bits () =
  if lambda_kbps <= 0.0 then
    invalid_arg "Workload.of_kbps: lambda must be positive";
  create ?update_fraction ?shape
    ~arrival_rate:(lambda_kbps *. 1000.0 /. float_of_int size_bits)
    ~size_bits ()

let lambda_bps t = t.arrival_rate *. float_of_int t.size_bits
let shape t = t.shape

let next_interarrival t rng = Dist.exponential rng ~rate:t.arrival_rate

let next_interarrival_at t ~now rng =
  match t.shape with
  | Poisson ->
      (* identical draw sequence to [next_interarrival]: one uniform *)
      Dist.exponential rng ~rate:t.arrival_rate
  | Flash_crowd { mult; period; dwell; _ } ->
      Dist.burst_interarrival rng ~rate:t.arrival_rate ~mult ~period ~dwell
        ~now

let is_update t rng = Rng.bernoulli rng t.update_fraction

let shape_to_string = function
  | Poisson -> "poisson"
  | Flash_crowd { mult; period; dwell; zipf_s } ->
      Printf.sprintf "flash:%.17g:%.17g:%.17g:%.17g" mult period dwell zipf_s

let shape_of_string str =
  if String.equal str "poisson" then Some Poisson
  else
    match String.split_on_char ':' str with
    | [ "flash"; m; p; d; s ] -> (
        match
          ( float_of_string_opt m, float_of_string_opt p,
            float_of_string_opt d, float_of_string_opt s )
        with
        | Some mult, Some period, Some dwell, Some zipf_s ->
            let shape = Flash_crowd { mult; period; dwell; zipf_s } in
            (match validate_shape shape with
            | () -> Some shape
            | exception Invalid_argument _ -> None)
        | _ -> None)
    | _ -> None
