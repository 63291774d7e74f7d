(** Random end-to-end simulation scenarios for the fuzzer.

    A scenario is plain data: either a full {!Softstate_core.Experiment}
    configuration (any protocol, topology and fault schedule the
    harness accepts) or an SSTP session workload (publish/remove
    script over a lossy link). Scenarios are generated from a seeded
    {!Softstate_util.Rng}, have an exact textual form for reproducer
    command lines, and run with observability attached so the
    invariant oracles in {!Oracle} can inspect the trace and metrics
    alongside the results. *)

module Experiment = Softstate_core.Experiment

(** What drives the session's puts. *)
type sstp_workload =
  | Script
      (** [publishes] evenly-spread publishes then [removes]
          withdrawals — the classic script below *)
  | Flash of {
      f_keys : int;     (** distinct paths, all published at t = 0 *)
      f_rate : float;   (** baseline update rate per second *)
      f_mult : float;   (** burst rate multiplier *)
      f_period : float; (** burst cycle length, seconds *)
      f_dwell : float;  (** burst duration per cycle *)
      f_zipf : float;   (** Zipf exponent of key popularity *)
    }
      (** a {!Softstate_trace.Generators.flash_crowd} trace replayed
          into the session; [publishes], [publish_window] and
          [removes] are ignored *)

type sstp = {
  s_seed : int;
  mu_total_kbps : float;
  s_loss : Experiment.loss_spec;
  publishes : int;          (** leaves published, evenly spread *)
  publish_window : float;   (** over [\[0, publish_window)] seconds *)
  removes : int;            (** withdrawals of already-published paths *)
  s_duration : float;
  summary_period : float;
  workload : sstp_workload;
}

type t =
  | Core of Experiment.config
      (** [config.obs] is [None] in a scenario; {!run} installs its
          own context. *)
  | Sstp of sstp
  | Gossip of Experiment.gossip_config
      (** epidemic dissemination over uniform mixing or a flat mesh *)

val generate : Softstate_util.Rng.t -> t
(** Draw a scenario. Roughly one in four is an {!Sstp} session and one
    in four a {!Gossip} run; the rest sweep the experiment space (all
    four protocols, all five topology kinds, Bernoulli and
    Gilbert–Elliott loss, fault schedules on multi-hop topologies).
    Bounds are chosen so every scenario terminates quickly and, for
    SSTP, can converge within the grace window {!run} allows. *)

val to_string : t -> string
(** One-line textual form, [of_string]-exact (floats are printed with
    full precision; fault windows are generated on a centisecond grid
    so the {!Softstate_net.Fault} [%g] syntax round-trips too). *)

val of_string : string -> (t, string) result

val topology_to_string : Experiment.topology_spec -> string
(** ["single-hop"], ["star:N"], ["chain:N"], ["tree:A:D"] or
    ["random:N:P"], [P] rendered exactly ([%.17g]). *)

val topology_of_string : string -> (Experiment.topology_spec, string) result
(** Inverse of {!topology_to_string}; also accepts ["tree:A"] for a
    depth-3 tree. Total: returns [Error] for malformed text and for
    any shape the topology builders reject — a count below 1, a
    random graph of fewer than 2 nodes, or an edge probability
    outside [0,1] (NaN included). *)

(** {1 Feature buckets}

    Static coverage buckets for the coverage-guided fuzzer: each
    scenario maps to the sorted, deduplicated set of bucket strings
    describing its shape (protocol kind, topology kind, loss model,
    fault kinds, arrival shape, ...). *)

val features : t -> string list
(** Sorted unique bucket strings for this scenario; every element is
    a member of {!feature_catalogue}. *)

val feature_catalogue : string list
(** Every bucket the generator can emit, sorted — the denominator of
    a feature-coverage fraction. *)

(** {1 Running} *)

type sstp_result = {
  consistency : float;
  avg_consistency : float;
  data_packets : int;
  feedback_packets : int;
  link_utilisation : float;
  sender_root : string;        (** namespace root digests, hex *)
  receiver_root : string;
  converged_after : float option;
      (** simulation time at which the root digests were first seen to
          match — checked at the horizon, then after every extra 30 s
          of grace run (same loss process), up to +300 s. [None] if
          the session never converged. *)
  namespaces_legal : (unit, string) result;
      (** {!Sstp.Namespace.check} of the sender's, then the receiver's
          namespace once the grace run ends *)
}

type payload =
  | Core_result of Experiment.result
  | Sstp_result of sstp_result
  | Gossip_result of Softstate_core.Gossip.result

type outcome = {
  scenario : t;
  payload : payload;
  horizon : float;   (** engine clock when measurement stopped *)
  events : Softstate_obs.Trace.event list;
      (** memory-trace contents, oldest first *)
  events_dropped : int;
      (** ring overwrites; trace-based oracles skip when non-zero *)
  flight : Softstate_obs.Trace.event list;
      (** flight-recorder contents: the last few hundred events before
          measurement stopped, oldest first — the black box the fuzzer
          dumps into its failure log when an oracle fires *)
  metrics : (string * float) list;
}

val run : t -> outcome
(** Deterministic: equal scenarios yield structurally equal outcomes
    ([Stdlib.compare] = 0), which is exactly what the replay oracle
    checks. *)
