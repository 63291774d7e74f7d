(** Profile-driven bandwidth allocation (§6.1, Figure 12).

    Inputs: the session bandwidth granted by the congestion manager,
    the smoothed loss estimate from receiver reports, the
    application's consistency target and its current send rate.
    Output: the data/feedback split and the hot/cold split within
    data, plus a rate-constraint flag telling the application to slow
    down if its arrival rate exceeds the hot bandwidth that the
    chosen allocation can give it (the paper's λ ≤ μ_hot rule). *)

type decision = {
  mu_data_bps : float;
  mu_fb_bps : float;
  mu_hot_bps : float;  (** part of [mu_data_bps] *)
  mu_cold_bps : float; (** the rest of [mu_data_bps] *)
  predicted_consistency : float;
  rate_constrained : bool;
    (** the application's λ exceeds the sustainable hot bandwidth *)
  max_app_rate_bps : float;
    (** largest λ the allocation can absorb at the measured loss *)
}

type t

val create :
  profile:Profile.t ->
  target_consistency:float ->
  ?hot_headroom:float ->
  unit ->
  t
(** [profile]'s control axis must be the feedback share of total
    bandwidth. [hot_headroom] (default 1.2) multiplies the loss-
    corrected arrival rate when sizing the hot queue: μ_hot =
    headroom · λ/(1−loss), the operating point just beyond the
    Figure 10/11 knee. *)

val decide :
  t -> mu_total_bps:float -> loss:float -> lambda_bps:float -> decision
(** Pure; call on every report or rate change. Raises
    [Invalid_argument] on non-positive [mu_total_bps] or [loss]
    outside [0, 1). *)
