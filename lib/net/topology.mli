(** A network graph: nodes joined by rate-limited, lossy cables, with static shortest-path routing, a source-rooted
    multicast tree, and injectable fault state — the multi-hop
    substrate behind {!Transport}.

    {2 Model}

    The graph itself — adjacency, cable endpoints, routes and the
    node / cable up bits — is a {!Flat_topology.t}; this module adds
    the packet-level plumbing on top. Each cable is a bidirectional
    pair of directed edges, and every edge has the topology-wide
    service rate and loss-process spec, so an edge
    is just its id [eid = 2 * cable + dir] (direction 0 runs from the
    cable's first endpoint to its second). Traffic crosses an edge
    through a bounded FIFO queue of 256 packets and a rate-limited
    server, so congestion, loss and queueing delay accumulate per hop
    instead of being a single flat draw. An overlay's edges are rows
    of one struct-of-arrays table, and the idle edges a packet enters
    at one node (a tree's sibling edges) finish in one calendar event,
    in child order, with the loss draws, trace events and deliveries
    that one event per edge would make.

    Routing is the flat core's breadth-first search over the full
    graph (ties between equal-length routes break by ascending
    neighbour id), resolved once when an overlay is created, and is
    {e not} fault-adaptive: a partitioned or crashed element
    blackholes the packets routed through it. That is deliberate —
    soft-state recovery must come from the protocol's own refresh
    machinery, not from the substrate rerouting around trouble.

    {2 Fault semantics}

    A down cable or node destroys packets at the moment they would
    enter or leave it: enqueued packets keep draining and are
    destroyed at the faulted element (counted in {!fault_drops}, and
    traced as [Packet_dropped] with detail ["fault"] when the
    topology carries an observability context). All transitions are
    explicit, idempotent, counted, and emit [Link_down] / [Link_up] /
    [Node_crash] / [Node_restart] / [Partition] / [Heal] trace
    events, so a seeded fault schedule produces an identical event
    sequence on every run.

    {2 Overlays}

    {!transport} packages a topology as a {!Transport.t}: each
    unicast / outbox / fanout created through it gets its own edge
    table, with its own per-edge queues and loss processes (loss
    processes are stateful, so overlays never share them) bound to the
    shared fault state.
    Overlay randomness derives from the topology's own generator at
    creation time, keeping runs reproducible. *)

type t

(** {1 Builders}

    All builders share the same cable parameters: [rate_bps] per
    directed edge, no propagation delay, and [loss] a spec invoked
    once per overlay edge (default lossless). Trace events and probes
    carry the source tag ["topo"].
    [rng] seeds overlay plumbing and the random builder's structure;
    node 0 is the conventional source. *)

val star :
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  ?obs:Softstate_obs.Obs.t ->
  ?loss:(unit -> Loss.t) ->
  rate_bps:float ->
  leaves:int ->
  unit ->
  t
(** Hub node 0 cabled to [leaves] ≥ 1 leaf nodes. *)

val chain :
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  ?obs:Softstate_obs.Obs.t ->
  ?loss:(unit -> Loss.t) ->
  rate_bps:float ->
  hops:int ->
  unit ->
  t
(** A line of [hops] ≥ 1 cables joining [hops + 1] nodes. *)

val kary_tree :
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  ?obs:Softstate_obs.Obs.t ->
  ?loss:(unit -> Loss.t) ->
  rate_bps:float ->
  arity:int ->
  depth:int ->
  unit ->
  t
(** Complete [arity]-ary tree of [depth] ≥ 1 cable levels, nodes
    numbered level-order from root 0 (node [i]'s children are
    [arity*i + 1 .. arity*i + arity]). *)

val random_graph :
  engine:Softstate_sim.Engine.t ->
  rng:Softstate_util.Rng.t ->
  ?obs:Softstate_obs.Obs.t ->
  ?loss:(unit -> Loss.t) ->
  rate_bps:float ->
  nodes:int ->
  edge_prob:float ->
  unit ->
  t
(** A connected G(n, p) variant built by {!Flat_topology.random}: a
    spanning chain [0-1-...-n-1] guarantees connectivity, then every
    remaining pair gains a cable with probability [edge_prob], sampled
    by geometric skips drawn from [rng]. *)

(** {1 Structure} *)

val engine : t -> Softstate_sim.Engine.t
val node_count : t -> int
val cable_count : t -> int
(* lint: allow U001 (a) used by test "star structure" *)
val edge_count : t -> int
(** Directed edges: [2 * cable_count]. *)

(* lint: allow U001 (a) used by test "faulted mesh matches reference" *)
val cable_endpoints : t -> int -> int * int
val leaves : t -> int list
(** Degree-1 nodes, ascending — churn targets. *)

(* lint: allow U001 (a) used by test "star structure" *)
val path : t -> src:int -> dst:int -> int list
(** Edge ids of the shortest path by hop count, ties broken by
    ascending neighbour id; [[]] when [src = dst]. Raises
    [Invalid_argument] if unreachable. *)

(* lint: allow U001 (a) used by test "star structure" *)
val farthest : t -> src:int -> int
(** The node at maximum hop distance from [src] (lowest id among
    ties) — the default receiver endpoint and worst-case path. *)

(* lint: allow U001 (a) used by test "chain routing" *)
val tree_children : t -> root:int -> int list array
(** The source-rooted multicast (BFS) tree as edge ids leaving each
    node toward its children. *)

(** {1 Fault state}

    These are the primitive transitions {!Fault} schedules drive; all
    return whether the state actually changed. *)

val set_cable : t -> int -> up:bool -> bool
val crash_node : t -> int -> bool
val restart_node : t -> int -> bool

val partition : t -> group:int list -> int
(** Cut every cable with exactly one endpoint in [group]; returns the
    number cut. Emits one [Partition] event plus a [Link_down] per
    cut cable. *)

val heal : t -> int
(** Restore every down cable; returns the number restored. Emits one
    [Heal] event plus a [Link_up] per restored cable. *)

(* lint: allow U001 (a) used by test "partition/heal" *)
val is_cable_up : t -> int -> bool
(* lint: allow U001 (a) used by test "node crash/restart" *)
val is_node_up : t -> int -> bool
val fault_transitions : t -> int
(** Effective transitions so far (idempotent repeats excluded). *)

val fault_drops : t -> int
(** Packets destroyed by down cables or nodes. *)

(** {1 Substrate accounting}

    Aggregate packet accounting over every overlay edge, for
    invariant checking ({!Softstate_check} oracles). Every packet
    offered to an edge is, at any instant, in exactly one bucket, so

    {[ s_injected = s_blackholed_inject + s_overflowed + s_queued
                    + s_sent ]}

    holds exactly, during a run and at the horizon; of the packets
    sent, [s_sent - s_delivered - s_dropped] are on an edge server now.
    With an observability context the same readings are registered as
    [topo.injected], [.blackholed_inject], [.blackholed_deliver],
    [.overflowed], [.queued], [.edge_sent], [.edge_delivered] and
    [.edge_dropped] probes. *)

type substrate = {
  s_injected : int;     (** packets offered to an overlay edge *)
  s_blackholed_inject : int;
      (** destroyed at the send-side fault gate *)
  s_blackholed_deliver : int;
      (** destroyed at the receive-side fault gate, after service *)
  s_overflowed : int;   (** rejected by a bounded edge queue *)
  s_queued : int;       (** waiting in edge queues now *)
  s_sent : int;         (** entered service on an edge server *)
  s_delivered : int;    (** survived the edge loss draw *)
  s_dropped : int;      (** destroyed by an edge loss process *)
}

val substrate : t -> substrate

(** {1 Transport} *)

val transport : t -> Transport.t
(** [transport t] views the topology as a {!Transport.t} whose source
    [src] is node 0 and whose receiver [dst] is [farthest t ~src]:

    - [unicast] serves at the protocol's rate on an access hop at
      [src] (applying the protocol's own [loss]/[delay] there), then
      forwards along [path t ~src ~dst] through per-edge queues of
      256 packets;
    - [outbox] is the reverse: a bounded access queue at [dst]
      draining along [path t ~src:dst ~dst:src] — the feedback
      direction;
    - [fanout] serves at [src] and floods the source-rooted multicast
      tree hop-by-hop; subscriber [i] listens at the [i]-th non-[src]
      node in ascending order, round-robin, and its [loss] argument
      becomes a last-hop process on top of the per-link ones. *)
