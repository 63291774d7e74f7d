(** Profile-driven bandwidth allocation (§6.1, Figure 12).

    Inputs: the session bandwidth (a fixed [mu_total_bps]; there is
    no congestion manager), the smoothed loss estimate from receiver
    reports, the application's consistency target and its current
    send rate. Output: the data/feedback split and the hot/cold split
    within data. Hot is sized to 1.2 times the loss-corrected send
    rate, just beyond the Figure 10/11 knee, but capped so that cold
    keeps a tenth of data; an application sending
    faster than that cap (the paper's λ ≤ μ_hot rule) gets the cap. *)

type decision = {
  (* lint: allow U003 (a) used by test "decision structure" *)
  mu_data_bps : float;
  mu_fb_bps : float;
  mu_hot_bps : float;  (** part of [mu_data_bps] *)
  mu_cold_bps : float; (** the rest of [mu_data_bps] *)
}

type t

val create : profile:Profile.t -> target_consistency:float -> unit -> t
(** [profile]'s control axis must be the feedback share of total
    bandwidth. *)

val decide :
  t -> mu_total_bps:float -> loss:float -> lambda_bps:float -> decision
(** Pure; call on every report or rate change. Raises
    [Invalid_argument] on non-positive [mu_total_bps] or [loss]
    outside [0, 1). *)
