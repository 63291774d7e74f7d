(** Flat struct-of-arrays network graph: the one graph substrate in
    this library.

    The whole graph lives in a few int arrays (CSR adjacency, one
    endpoint pair per cable, bitset fault state) — roughly 40 bytes
    per node on a sparse graph — and routing is computed lazily into
    a single reusable scratch. It carries no engine, queues or loss
    processes: round-batched protocols (e.g.
    {!Softstate_core.Gossip}) run over it directly, and {!Topology}
    wraps it with the per-edge queues and fault-gated forwarding that
    packet-level protocols need.

    {2 Determinism contract}

    A node's incident edges are sorted ascending by neighbour id
    (ties by cable id), so "the [k]-th neighbour of [u]" is a pure
    function of the graph. The random builder draws one geometric
    skip per accepted pair instead of one Bernoulli per pair, making
    G(n,p) construction O(N + E) draws and its cable set a pure
    function of the seed. *)

type t

(** {1 Builders}

    Node 0 is the conventional source. All builders run in O(N + E)
    time and memory. *)

val star : leaves:int -> unit -> t
(** Hub node 0 cabled to [leaves] >= 1 leaves. *)

val chain : hops:int -> unit -> t
(** A line of [hops] >= 1 cables joining [hops + 1] nodes. *)

val kary_tree : arity:int -> depth:int -> unit -> t
(** Complete [arity]-ary tree of [depth] >= 1 cable levels, numbered
    level-order from root 0 (node [i]'s children are
    [arity*i + 1 .. arity*i + arity]). *)

val random : rng:Softstate_util.Rng.t -> nodes:int -> edge_prob:float -> unit -> t
(** Connected G(n, p) variant: a spanning chain [0-1-...-n-1] plus
    each non-adjacent pair with probability [edge_prob], sampled by
    geometric skips (one draw per {e accepted} pair), so
    [random:1000000:p] builds without an O(N^2) pair loop. The cable
    set is deterministic in [rng]. *)

(* lint: allow U001 (a) used by test "faulted mesh matches reference" *)
val of_cables : nodes:int -> (int * int) array -> t
(** Exact cable list (e.g. extracted from a {!Topology.t} via
    [cable_endpoints]). Cable [i] keeps index [i]. Raises
    [Invalid_argument] on out-of-range endpoints or self-loops. *)

(** {1 Structure} *)

val kind : t -> string
(** Builder tag, e.g. ["random:100000:1e-05"]. *)

val node_count : t -> int
val cable_count : t -> int

val degree : t -> int -> int

val neighbor : t -> int -> int -> int
(** [neighbor t u k] is [u]'s [k]-th neighbour, [0 <= k < degree t u],
    ascending by node id. *)

val neighbor_cable : t -> int -> int -> int
(** The cable carrying [neighbor t u k]. *)

val cable_endpoints : t -> int -> int * int

(** The CSR arrays themselves, for sweeps that touch every edge:
    node [u]'s incident edges are indices [off.(u) .. off.(u+1) - 1]
    of [node] (the neighbour, in {!neighbor} order) and [cable] (the
    cable it rides). The arrays are the graph's own, not copies:
    they are read-only, and writing to them corrupts the graph. *)
type adjacency = { off : int array; node : int array; cable : int array }

val adjacency : t -> adjacency

val footprint_words : t -> int
(** Approximate resident size in words of the graph's arrays
    (including any routing scratch allocated so far) — the number the
    large-topo bench row tracks per node. *)

(** {1 Fault state}

    Bitset per node / cable; transitions are counted and idempotent
    repeats return [false]. Routing ignores fault state (static
    routing); protocols consult {!is_node_up} / {!is_cable_up} at
    transmission time, and may skip both while {!all_up} holds. *)

val set_cable : t -> int -> up:bool -> bool
val crash_node : t -> int -> bool
val restart_node : t -> int -> bool
val is_cable_up : t -> int -> bool
val is_node_up : t -> int -> bool

val all_up : t -> bool
(** No node is crashed and no cable is down, read in O(1) from an
    exact count of down nodes and cables that every transition
    keeps. *)

val fault_transitions : t -> int

(** {1 Routing}

    Lazily computed breadth-first distances from one cached source at
    a time into a shared 3-ints-per-node scratch (allocated on first
    use, reused across sources). A query recomputes only when its
    source differs from the cached one; nothing is cached per source.
    Neighbours are visited in CSR order, so ties between equal-length
    routes break by ascending neighbour id. *)

val dist : t -> src:int -> dst:int -> int
(** Hop distance, [-1] if unreachable, [0] when [src = dst]. *)

val route_parent : t -> src:int -> int -> int
(** BFS-tree parent of a node toward [src] ([-1] at [src] and
    unreachable nodes). *)

val farthest : t -> src:int -> int
(** The reachable node at maximum hop distance (lowest id among
    ties). *)
