(** SSTP sender state machine (§6).

    Owns the authoritative namespace. Transmits original data and
    repair responses from per-class foreground queues, announces the
    root summary cold on a fixed period, and smooths receiver reports
    into a loss estimate (the [sender.loss_estimate] probe).

    Bandwidth is managed by a two-level hierarchical scheduler
    (§6.1, Figure 12): the root splits between the {e data} class and
    the {e cold} summary class; within data, the application can
    register its own classes ("audio", "control", ...) with relative
    weights and direct every published ADU to one of them —
    application-controlled bandwidth allocation. ADUs published
    without a class use the default class.

    The transport pulls work with {!fetch}; feedback messages are
    pushed in with {!handle_feedback}. *)

type t

type config = {
  summary_period : float;   (** seconds between cold root summaries *)
  mu_hot_bps : float;       (** data (foreground) weight *)
  mu_cold_bps : float;      (** cold (summary) weight *)
}

(* lint: allow U001 (a) used by test "validation" *)
val default_config : mu_total_bps:float -> config
(** 70/30 data/cold split of 90% of the session bandwidth, 1 s summary
    period. *)

val create :
  ?obs:Softstate_obs.Obs.t ->
  engine:Softstate_sim.Engine.t -> config:config -> unit -> t
(** With [obs], registers [sender.*] metrics probes (sent counts,
    backlog, loss estimate) and traces every outgoing envelope
    (Data as [Announce], Summary, Signatures as [Repair], Remove)
    with the wire sequence number as the event value. *)

(** {1 Application interface} *)

val add_class : t -> name:string -> weight:float -> unit
(** Register an application data class with a relative weight among
    the data classes. [Invalid_argument] if the name exists or is
    ["default"]. *)

val set_class_weight : t -> name:string -> float -> unit
(** Re-weight a class (the application reflecting changed priorities
    into the protocol, §6.1). Raises [Not_found] on unknown names. *)

(* lint: allow U002 (a) used by test "meta-driven interest" *)
val publish :
  t -> path:Path.t -> payload:string -> ?meta:string list ->
  ?klass:string -> unit -> unit
(** Insert or update an ADU; queues a foreground {!Wire.Data} in the
    named class (default class if omitted; unknown class names raise
    [Not_found]). The path remembers its class: repairs for it are
    served from the same class's bandwidth. *)

val remove : t -> path:Path.t -> unit
(** Withdraw a subtree; queues a hot {!Wire.Remove}. *)

val namespace : t -> Namespace.t

(** {1 Transport interface} *)

val fetch : t -> now:float -> Wire.envelope Softstate_net.Packet.t option
(** Next envelope to transmit, chosen by the hierarchical scheduler,
    as a packet with id [seq] whose size is the wire size charged to
    the scheduler; [None] when nothing is due. *)

val handle_feedback : t -> now:float -> Wire.msg -> unit
(** Process a receiver-originated message. *)

(** {1 Introspection} *)

val class_sent : t -> name:string -> int
(** Envelopes transmitted from the named class so far. *)

val sent_data : t -> int
val sent_summaries : t -> int
val sent_signatures : t -> int
