(** One-call simulation harness.

    Describes a single-sender/single-receiver announce/listen run in
    the paper's vocabulary (rates in kb/s, probabilities, protocol
    variant) and returns the measured consistency profile quantities.
    Every run is fully determined by [seed]. *)

type loss_spec =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

val loss_mean : loss_spec -> float
val make_loss : loss_spec -> Softstate_net.Loss.t

type protocol_spec =
  | Open_loop of { mu_data_kbps : float }
  | Two_queue of { mu_hot_kbps : float; mu_cold_kbps : float }
  | Feedback of {
      mu_hot_kbps : float;
      mu_cold_kbps : float;
      mu_fb_kbps : float;
      nack_bits : int;
      fb_lossy : bool;
        (** apply the data channel's loss spec to NACKs as well *)
    }
  | Multicast of {
      receivers : int;
      mu_hot_kbps : float;
      mu_cold_kbps : float;
      mu_fb_kbps : float;
      nack_bits : int;
      suppression : bool;  (** slotting-and-damping NACK suppression *)
      nack_slot : float;
    }  (** one sender, a group of receivers with independent loss *)

(** Where the traffic runs. [Single_hop] is the historical direct
    sender→receiver wiring; the others route through a
    {!Softstate_net.Topology} whose every edge gets the protocol's
    data rate and an independent instance of the configured loss
    process (the protocol itself then runs lossless — loss happens on
    the links, hop by hop). Node 0 is the sender; the unicast
    receiver sits at the farthest node; multicast receivers attach
    round-robin over the other nodes. *)
type topology_spec =
  | Single_hop
  | Star of { leaves : int }
  | Chain of { hops : int }
  | Kary_tree of { arity : int; depth : int }
  | Random_graph of { nodes : int; edge_prob : float }

type config = {
  seed : int;
  duration : float;     (** simulated seconds *)
  lambda_kbps : float;  (** table update rate λ *)
  size_bits : int;      (** announcement size *)
  death : Base.death_spec;
  expiry : Base.expiry_spec;  (** receiver-side soft-state timers *)
  update_fraction : float;
  arrival : Workload.shape;
      (** arrival-process shape; [Workload.Poisson] (the default)
          reproduces the historical draw stream byte-for-byte *)
  loss : loss_spec;
  protocol : protocol_spec;
  topology : topology_spec;
  faults : Softstate_net.Fault.spec list;
      (** compiled against the topology with a seed-derived generator
          and installed before the run; non-empty requires a topology *)
  sched : Softstate_sched.Scheduler.algorithm;
  empty_policy : Consistency.empty_policy;
  record_series : bool;
  obs : Softstate_obs.Obs.t option;
      (** observability context: when present, every link/pipe and the
          engine register metrics probes and emit trace events *)
}

val default : config
(** λ = 15 kb/s, 1000-bit records, fixed 30 s lifetimes, 10% Bernoulli
    loss, open loop at μ = 45 kb/s, stride scheduling, 2000 s,
    seed 1. *)

type result = {
  avg_consistency : float;
  final_consistency : float;   (** instantaneous c at the horizon *)
  latency_mean : float;        (** mean receive latency, s; nan if none *)
  latency_ci95 : float;
  deliveries : int;            (** latency samples = first deliveries *)
  transmissions : int;
  redundant_fraction : float;  (** measured Figure-4 quantity; nan if none *)
  sent_hot : int;              (** 0 for open loop *)
  sent_cold : int;
  nacks_wanted : int;          (** loss detections (pre-suppression) *)
  nacks_sent : int;
  nacks_suppressed : int;      (** damped by overheard NACKs *)
  nacks_delivered : int;
  nack_overflows : int;
  reheats : int;
  false_expiries : int;        (** receiver timeouts of live records *)
  stale_purged : int;
      (** receiver copies of dead records the expiry timers would have
          collected: counted at sender death under the sweep, at the
          orphaned timer's firing under the wheel ({!Base.stale_purged}) *)
  live_at_end : int;
  utilisation : float;         (** data link busy fraction *)
  fault_transitions : int;     (** effective topology fault flips *)
  fault_drops : int;           (** packets destroyed by down elements *)
  packets_sent : int;
      (** packets entering service on any simulated server: the head
          data link(s), the feedback channel when present, and — in
          topology mode — every overlay edge stage. Single-hop
          multicast counts each service completion once per receiver,
          since the channel offers the packet to every subscriber. *)
  packets_delivered : int;     (** of those, survived their loss draw *)
  packets_dropped : int;
      (** of those, destroyed by a loss draw. Conservation:
          [packets_sent - packets_delivered - packets_dropped] is the
          number of packets still in service at the horizon (>= 0,
          bounded by the number of servers). Blackholes at faulted
          elements are separate, in [fault_drops]. The triple is
          reported identically for single-hop and topology runs,
          which is what the fuzzer's conservation oracle checks. *)
  series : (float * float) list; (** (t, c(t)) if requested *)
}

val run : config -> result

(** {1 Replicated runs}

    Many independent replications of one configuration, optionally
    fanned out across domains. Replication [i] always runs with the
    same derived seed regardless of job count, and merging happens in
    replication-index order, so every summary field is bit-identical
    for any [jobs] value. *)

type summary = {
  replications : int;
  consistency_mean : float;   (** mean of per-replication averages *)
  consistency_ci95 : float;   (** 95% CI half-width across replications *)
  final_consistency_mean : float;
  latency_mean : float;       (** over replications with deliveries *)
  latency_ci95 : float;
  deliveries : int;           (** summed over replications *)
  transmissions : int;
  redundant_fraction_mean : float;
  utilisation_mean : float;
  sent_hot : int;
  sent_cold : int;
  nacks_sent : int;
  nacks_delivered : int;
  reheats : int;
  false_expiries : int;
  stale_purged : int;
}

val run_many :
  ?jobs:int ->
  ?domain_report:(Softstate_sim.Parallel.Stats.t -> unit) ->
  replications:int ->
  config ->
  summary * result array
(** [run_many ~jobs ~replications config] runs [replications]
    independent copies of [config] (per-replication seeds derived from
    [config.seed]; [config.obs] is dropped and [record_series] is
    off). [jobs <= 0] uses all recommended domains. Returns the merged
    summary plus the per-replication results in index order; both are
    a pure function of [config] and [replications], identical for any
    [jobs]. [domain_report] receives the fan-out's per-domain
    wall-time/task-count stats, which are host-clock readings kept out
    of the summary. *)

val run_grid :
  ?jobs:int ->
  ?domain_report:(Softstate_sim.Parallel.Stats.t -> unit) ->
  config list ->
  result list
(** Run a list of distinct configurations (a parameter sweep),
    optionally across domains, preserving order. Each config's [obs]
    context is detached when running with more than one job (an obs
    context is single-domain mutable state). [domain_report] is as in
    {!run_many}. *)

val replication_seeds : config -> int -> int array
(** The per-replication seeds [run_many] derives from [config.seed] —
    a pure function of the config, independent of the job count, so
    any replication can be reproduced standalone by running [config]
    with the corresponding seed. *)

val summarise : result array -> summary
(** Merge results in array order (exposed for tests). *)

val summary_report : config:config -> summary -> Softstate_obs.Report.t

val report :
  ?obs:Softstate_obs.Obs.t -> config:config -> result -> Softstate_obs.Report.t
(** Render a run as a structured report (run / consistency / traffic
    sections, plus a metrics section when [obs] is given — normally
    the same context stored in [config.obs]). *)

(** {1 Gossip dissemination}

    The epidemic protocol ({!Gossip}) over the flat substrate,
    described in the harness's own vocabulary. [Single_hop] as the
    topology means uniform (complete-graph) mixing over [g_nodes]
    peers — the configuration the mean-field fluid mode describes
    exactly; the graph kinds build a
    {!Softstate_net.Flat_topology} mesh, making [random:1000000:p]
    populations feasible. *)

type gossip_config = {
  g_seed : int;
  g_topology : topology_spec;
  g_nodes : int;            (** population for [Single_hop] mixing *)
  g_mode : Gossip.mode;
  g_fanout : int;
  g_loss : float;           (** per-transmission Bernoulli loss *)
  g_round_period : float;
  g_max_rounds : int;
  g_initial : int;
  g_target : float;         (** stop at this infected fraction *)
}

val gossip_default : gossip_config
(** Push, fanout 1, lossless, 1 s rounds, 64 rounds max, one initial
    infective, uniform mixing over 1000 nodes, seed 1. *)

val gossip_population : gossip_config -> int
(** The population size the config describes (node count of the mesh,
    or [g_nodes] under uniform mixing) — without building anything. *)

val gossip_protocol_config : gossip_config -> Gossip.config
(** The protocol-level view of this config (what {!run_gossip} hands
    to {!Gossip.run}). *)

val gossip_peers : gossip_config -> Gossip.peers
(** Build the peer structure (the flat mesh for graph topologies; its
    random builder draws from a stream split off [g_seed]'s root). *)

val run_gossip : ?obs:Softstate_obs.Obs.t -> gossip_config -> Gossip.result
(** Deterministic in the config. With [?obs], engine probes and
    per-round gossip metrics/trace events are attached. *)

val fluid_gossip : ?rounds:int -> gossip_config -> (float * float) array
(** The mean-field trajectory for this config's population on [run]'s
    series grid (see {!Gossip.fluid}); exact for uniform mixing, an
    approximation over meshes. *)

val gossip_topology_name : gossip_config -> string
(** ["uniform:N"] or the mesh's [topology_name]. *)

val gossip_time_to : Gossip.result -> float -> float
(** First series time at which the infected fraction reaches the given
    threshold; [nan] if it never does within the run. *)

val gossip_report :
  ?obs:Softstate_obs.Obs.t ->
  config:gossip_config ->
  Gossip.result ->
  Softstate_obs.Report.t
