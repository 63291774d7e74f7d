(** SSTP receiver state machine (§6.2).

    Maintains a local namespace copy and drives recursive-descent
    repair: a root-summary mismatch triggers a signature query; each
    signature answer is compared child by child, recursing into
    mismatching interior nodes and NACKing mismatching leaves.
    Outstanding queries and NACKs are deduplicated and retransmitted
    on a timer until the matching response resolves them, so a lost
    response costs one timeout, not a stalled descent. An application
    interest filter prunes repair below branches the application does
    not care about (the paper's PDA example), using the sender's
    meta tags or the path itself. *)

type t

type config = {
  repair_timeout : float;
      (** retransmission timer for outstanding queries/NACKs *)
  report_period : float;  (** receiver-report interval, seconds *)
  max_repair_retries : int;
      (** per-request retry budget before giving up (the periodic
          summary mismatch will eventually re-trigger repair) *)
}

(* lint: allow U001 (a) used by test "reconcile order" *)
val default_config : config
(** 2 s repair timer, 5 s report period, 32 retries. *)

val create :
  ?obs:Softstate_obs.Obs.t ->
  engine:Softstate_sim.Engine.t ->
  config:config ->
  send_feedback:(Wire.msg -> unit) ->
  unit ->
  t
(** [send_feedback] hands a message to the feedback transport. The
    periodic report timer starts immediately. With [obs], registers
    [receiver.*] metrics probes and traces repair activity
    ([Digest_mismatch] on a diverging summary, [Query]/[Nack] per
    repair request including retries, [Remove] on withdrawals). *)

val set_interest : t -> (Path.t -> meta:string list -> bool) -> unit
(** Repair is not requested below paths for which the predicate is
    [false]. Default: interested in everything. Data that arrives
    anyway (e.g. multicast) is still stored. *)

val handle : t -> now:float -> Wire.envelope -> unit
(** Process a data-channel envelope (counts it for loss reports and
    dispatches on the message). *)

val namespace : t -> Namespace.t

val on_update : t -> (Path.t -> string -> unit) -> unit
(** Application callback on every stored insert/update. *)

(* lint: allow U001 (a) used by test "reconcile order" *)
val on_remove : t -> (Path.t -> unit) -> unit

val nacks_sent : t -> int
val queries_sent : t -> int
val reports_sent : t -> int
val packets_received : t -> int
