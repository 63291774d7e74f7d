(** Round-synchronous epidemic (gossip) dissemination with a
    mean-field fluid mode.

    Each round, every infected node pushes the rumour to [fanout]
    uniformly-drawn neighbours; in push-pull mode every susceptible
    node additionally pulls from [fanout] neighbours. Rounds are
    batched: one calendar event per round sweeps every contact with
    array reads/writes (no per-contact closures or packet records),
    so 10^5-10^6-node populations run within memory on the flat
    substrate.

    Determinism: a run is a pure function of [(config, peers)]. The
    [digest] folds the complete infection sequence through a 64-bit
    mix — equal digests mean identical delivery traces, which is what
    the golden pins and the Mesh-vs-View equivalence test check. *)

type mode = Push | Push_pull

val mode_name : mode -> string
(** ["push"] / ["push-pull"]. *)

(** Who can contact whom. *)
type peers =
  | Uniform of int
      (** Complete-graph mixing over a population of the given size,
          without materialising O(N^2) edges — the configuration the
          mean-field {!fluid} limit describes exactly. *)
  | Mesh of Softstate_net.Flat_topology.t
      (** Contacts restricted to graph neighbours; transmissions over
          down cables or into down nodes are blackholed. *)
  | View of {
      view_nodes : int;
      view_degree : int -> int;
      view_neighbor : int -> int -> int;
    }
      (** An arbitrary adjacency view (no fault state). Supplying the
          same graph through [Mesh] and through a [View] built from
          another engine must yield identical runs — the equivalence
          tests exercise exactly that. *)

type config = {
  seed : int;            (** protocol RNG stream *)
  mode : mode;
  fanout : int;          (** contacts per node per round, >= 1 *)
  loss : float;          (** per-transmission Bernoulli loss, [0, 1] *)
  round_period : float;  (** simulated seconds per round, > 0 *)
  max_rounds : int;
  initial : int;         (** nodes [0 .. initial-1] start infected *)
  target_fraction : float;
      (** stop once the infected fraction reaches this, in (0, 1] *)
}

val default : config
(** Push, fanout 1, lossless, 1 s rounds, 64 rounds max, one initial
    infective, run to full dissemination, seed 1. *)

type result = {
  nodes : int;
  rounds : int;          (** rounds actually executed *)
  infected : int;        (** final infected count *)
  transmissions : int;   (** contacts attempted *)
  deliveries : int;      (** first-time infections; [infected - initial] *)
  redundant : int;       (** contacts reaching already-infected nodes *)
  misses : int;
      (** pull contacts whose peer had nothing to offer, plus contacts
          from isolated nodes. Conservation (the fuzzer oracle):
          [transmissions = deliveries + redundant + misses + lost +
          blackholed], exactly. *)
  lost : int;            (** destroyed by the loss draw *)
  blackholed : int;      (** destroyed by down cables / nodes *)
  digest : string;       (** 16-hex-digit delivery-trace digest *)
  series : (float * float) array;
      (** (time, infected fraction) at round boundaries, index 0 the
          initial state *)
}

val run :
  ?obs:Softstate_obs.Obs.t ->
  ?engine:Softstate_sim.Engine.t ->
  config ->
  peers ->
  result
(** With [?obs], live [gossip.*] metrics probes are registered and a
    [Custom "round"] trace event is emitted per round. With [?engine]
    the rounds ride an existing calendar (driven up to [max_rounds]
    periods); otherwise a private engine is created and drained. *)

val fluid : ?rounds:int -> config -> nodes:int -> (float * float) array
(** The mean-field trajectory of the infected fraction on the same
    (time, fraction) grid as [run]'s [series], for a population of
    [nodes] under [Uniform] mixing: per round, a susceptible node
    stays susceptible with probability [exp (-beta x)] (push misses;
    [beta = fanout * (1 - loss)]), times
    [(1 - (1 - loss) x)^fanout] in push-pull mode (its own pulls
    miss). [rounds] defaults to [config.max_rounds]. The
    discrete-event c(t) converges to this as N grows; the tolerance
    at N = 10^4 is pinned in the test suite. *)

val fluid_step : config -> float -> float
(** One application of the mean-field map (exposed for the one-step
    convergence assertions). *)
