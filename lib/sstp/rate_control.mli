(** Congestion-manager stub (substitute for CM [3]).

    SSTP deliberately does not do congestion control; it asks an
    external module for the session's available rate and subdivides
    that. This stub provides the same contract: a current rate, a
    token bucket for pacing against it, and change notification so
    the allocator can re-split when the rate moves. Tests drive
    {!set_rate} by hand; a real deployment would wire it to a
    congestion-control loop. *)

type t

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val create :
  Softstate_sim.Engine.t -> rate_bps:float -> ?burst_bits:float -> unit -> t
(** [burst_bits] is the bucket depth (default one second's worth). *)

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val rate_bps : t -> float

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val set_rate : t -> float -> unit
(** Update the available rate (e.g. after a congestion event);
    notifies subscribers. *)

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val on_change : t -> (float -> unit) -> unit
(** Register a callback for rate changes; callbacks run in
    registration order. *)

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val try_consume : t -> bits:float -> bool
(** Take [bits] from the bucket if available (tokens accrue with
    simulation time at the current rate). *)

(* lint: allow U001 (b) DESIGN.md §1 row 11: the token-bucket CM stub *)
val available_bits : t -> float
(** Tokens currently in the bucket. *)
