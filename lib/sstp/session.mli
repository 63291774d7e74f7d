(** A complete SSTP session: sender and receiver wired over a lossy,
    rate-limited simulated network.

    The data channel is pull-based, driven by {!Sender.fetch}; the
    feedback channel is push-based. Both are created through a
    pluggable {!Softstate_net.Transport} — by default a direct
    single-hop link/pipe pair, or a multi-hop
    {!Softstate_net.Topology} route. Reliability level is a continuum
    set by the bandwidth split (§6.1): summaries-only behaves like
    pure announce/listen, generous feedback approaches reliable
    transport. *)

type reliability =
  | Announce_only
      (** no feedback channel: open-loop summaries + data *)
  | Manual of { mu_hot_bps : float; mu_cold_bps : float; mu_fb_bps : float }

type config = {
  mu_total_bps : float;
  loss : Softstate_net.Loss.t;         (** data-channel loss *)
  fb_loss : Softstate_net.Loss.t;      (** feedback-channel loss *)
  delay : float;                       (** one-way propagation, s *)
  reliability : reliability;
  summary_period : float;
  repair_timeout : float;
  report_period : float;
}

val default_config : mu_total_bps:float -> config
(** Lossless, zero-delay, [Manual] 60/25/15 split, 1 s summaries. *)

type t

val create :
  ?obs:Softstate_obs.Obs.t ->
  ?transport:Softstate_net.Transport.t ->
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  config:config ->
  unit ->
  t
(** With [obs], the data link ([session.data]), feedback pipe
    ([session.fb]), sender and receiver all register metrics probes
    and emit trace events; the session additionally registers
    [session.data_packets], [session.feedback_packets],
    [session.link_utilisation] and [session.consistency] probes —
    the same readings the accessors below return. *)

val sender : t -> Sender.t
val receiver : t -> Receiver.t

val publish : t -> path:string -> payload:string -> unit
(** Convenience: {!Sender.publish} with a string path, then kick the
    transport. *)

val remove : t -> path:string -> unit

val consistency : t -> float
(** Fraction of sender leaves whose digest the receiver holds, 1.0
    for an empty sender tree — the paper's c(t) instantiated on the
    namespace. O(leaves). *)

val converged : t -> bool
(** Root digests equal. *)

val root_digests : t -> string * string
(** (sender, receiver) namespace root digests in hex — a compact
    fingerprint of the whole session state, used by the scenario
    fuzzer's replay oracle to compare runs bit-for-bit. *)

val track_consistency : t -> period:float -> unit
(** Sample {!consistency} every [period] seconds into a time-weighted
    average readable with {!average_consistency}. *)

val average_consistency : t -> float

val kick : t -> unit
(** Wake the data link (e.g. after out-of-band namespace edits). *)

val data_packets : t -> int
val feedback_packets : t -> int

val link_utilisation : t -> float
(** Busy fraction of the data link since session start. These three
    accessors are thin wrappers over the same readings the
    [session.*] registry probes report. *)
