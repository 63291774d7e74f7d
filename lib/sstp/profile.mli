(** Consistency profiles (§6.1, Figure 12).

    A profile maps operating points — channel loss rate and a control
    variable such as the feedback-bandwidth share — to the consistency
    the system then achieves. SSTP stores profiles (measured
    empirically from the model of [Softstate_core], or derived
    analytically) and the allocator inverts them: given a loss
    estimate and a consistency target, find the cheapest control
    setting that meets the target. *)

type t

(* lint: allow U001 (a) used by test "interpolation" *)
val consistency_at : t -> loss:float -> share:float -> float
(** Bilinear interpolation; arguments are clamped to the grid's
    range. *)

val best_share : t -> loss:float -> target:float -> float option
(** Smallest tabulated share achieving [target] consistency at [loss]
    (interpolating along the loss axis); [None] if no setting
    reaches it — the caller should fall back to {!argmax_share}. *)

val argmax_share : t -> loss:float -> float
(** The share maximising interpolated consistency at [loss]. *)

val analytic_open_loop :
  lambda_kbps:float -> mu_total_kbps:float -> p_death:float -> t
(** Profile derived from the closed-form §3 model: the control axis is
    the share of total bandwidth given to the data channel. The value
    is the live-record consistency proxy s·min(1, 1/ρ) — the class
    mix of the product form, discounted under overload — rather than
    the paper's E\[c\] = s·ρ, which scores empty systems as zero and
    would reward starving the channel. *)

val of_measurements : (float * float * float) list -> t
(** [(loss, share, consistency)] triples on a complete rectangular
    grid, in any order; raises [Invalid_argument] on holes or on a
    consistency outside [0, 1]. The way bench-measured profiles are
    ingested. *)

val pp : Format.formatter -> t -> unit
(** Render the grid as an aligned table. *)

val save : t -> path:string -> unit
(** Write the profile as line-oriented text: a header line, then one
    [loss share consistency] triple per line. *)
