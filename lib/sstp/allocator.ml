type decision = {
  mu_data_bps : float;
  mu_fb_bps : float;
  mu_hot_bps : float;
  mu_cold_bps : float;
}

type t = { profile : Profile.t; target_consistency : float }

(* μ_hot = headroom · λ/(1−loss): the operating point just beyond the
   Figure 10/11 knee. *)
let hot_headroom = 1.2

let create ~profile ~target_consistency () =
  if target_consistency <= 0.0 || target_consistency > 1.0 then
    invalid_arg "Allocator.create: target consistency in (0,1]";
  { profile; target_consistency }

let decide t ~mu_total_bps ~loss ~lambda_bps =
  if mu_total_bps <= 0.0 then
    invalid_arg "Allocator.decide: total bandwidth must be positive";
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Allocator.decide: loss must be in [0,1)";
  if lambda_bps < 0.0 then
    invalid_arg "Allocator.decide: negative application rate";
  (* Feedback share from the stored profile: cheapest share meeting
     the target, else the profile's maximiser. *)
  let fb_share =
    match Profile.best_share t.profile ~loss ~target:t.target_consistency with
    | Some s -> s
    | None -> Profile.argmax_share t.profile ~loss
  in
  (* Never let feedback squeeze data below half the session: the
     Figure 8 collapse region is excluded by construction. *)
  let fb_share = Float.min fb_share 0.5 in
  let mu_fb_bps = fb_share *. mu_total_bps in
  let mu_data_bps = mu_total_bps -. mu_fb_bps in
  (* Hot sized to absorb new data plus loss-driven repairs, with
     headroom; cold receives the remainder but never less than a
     tithe, so late joiners and lost NACKs are always covered. *)
  let min_cold = 0.1 *. mu_data_bps in
  let wanted_hot = hot_headroom *. lambda_bps /. (1.0 -. loss) in
  let mu_hot_bps =
    Float.max (0.1 *. mu_data_bps)
      (Float.min wanted_hot (mu_data_bps -. min_cold))
  in
  let mu_cold_bps = mu_data_bps -. mu_hot_bps in
  { mu_data_bps; mu_fb_bps; mu_hot_bps; mu_cold_bps }
