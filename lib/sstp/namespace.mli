(** The SSTP hierarchical namespace: a hash tree over ADUs (§6.2).

    Leaves hold application payloads; every node carries a 16-byte MD5
    digest ({!Digest.t}) computed recursively over netstring-framed
    parts, where [⟦s⟧ = len(s) ":" s] with [len] in decimal:
    - [h(leaf) = MD5(⟦"leaf"⟧ · ⟦payload⟧ · ⟦m₁⟧ · … · ⟦mⱼ⟧)] over the
      leaf's meta tags in their stored order;
    - [h(node) = MD5(⟦"node"⟧ · ⟦A⟧)] with
      [A = ⊕ᵢ MD5(⟦nameᵢ⟧ · ⟦h(cᵢ)⟧)], the bytewise XOR of one term per
      child; a node without children has [A] = 16 zero bytes. Interior
      meta tags are not hashed.

    The framing keeps ["ab"]·["c"] apart from ["a"]·["bc"] and a leaf
    apart from an interior node. Digest equality of two trees implies
    (up to hash collisions) equal contents, so a receiver can find every
    divergence by descending only into mismatching subtrees — the
    recursive-descent repair of the announcement protocol.

    The XOR combiner makes [A] a set hash of the (name, digest) pairs:
    it is order-free by construction, and each pair's term can be
    swapped out alone. Between honest replicas it detects divergence
    with collisions at about 2⁻¹²⁸ for content not chosen to collide.
    It is not collision-resistant against someone who chooses names
    and payloads: XOR-combined hashes (XHASH) fall to linear algebra
    over GF(2) given enough chosen terms (Bellare and Micciancio,
    EUROCRYPT '97). SSTP trusts its publishers; do not rely on these
    digests to authenticate content.

    Cost model. Each node keeps its children in two arrays sorted by
    name ([String.compare], the order {!children} lists them in), so a
    path lookup is one binary search per segment, and {!diff} and
    {!matching_leaves} are merge walks over those arrays. Adding or
    removing a child copies its parent's arrays (O(fan-out)); replacing
    a leaf's payload does not. Digests are cached and recomputed lazily
    along the dirty spine: an update costs O(depth) invalidations, and
    the next digest read rehashes only the stale nodes on that spine.
    An interior node keeps [A]; each child keeps the digest its parent
    last folded in and its 16-byte term. Rehashing an interior node
    compares each child's current digest with the folded one: O(fan-out)
    compares, plus, for each child whose digest moved, one small MD5 to
    make its new term and two 16-byte XORs to swap it into [A], then one
    MD5 over the 25-byte [⟦"node"⟧ · ⟦A⟧]. A new child is folded in by
    the next read like any moved one; a removed child's term is XORed
    out of [A]; nothing is laid out again. The same pass counts each
    node's subtree leaves. *)

type t

val create : unit -> t

val put : t -> path:Path.t -> payload:string -> [ `Inserted | `Updated ]
(** Create or replace the leaf at [path], creating interior nodes as
    needed. [Invalid_argument] if [path] is the root or names an
    existing {e interior} node (interior nodes carry no payload). *)

val remove : t -> path:Path.t -> bool
(** Delete the node (and its subtree); [false] if absent. Interior
    nodes left childless are pruned. Removing the root clears the
    tree. *)

val store : t -> path:Path.t -> payload:string -> meta:string list -> bool
(** {!put} followed by setting the leaf's meta tags to [meta], in one
    walk down [path]. [true] iff the leaf is new or its payload or its
    tags changed, which is exactly when its digest changes. Raises as
    {!put} does. *)

val find : t -> Path.t -> string option
(** Leaf payload, if [path] names a leaf. *)

val mem : t -> Path.t -> bool
val is_leaf : t -> Path.t -> bool

val leaf : t -> Path.t -> (string * int * string list) option
(** The payload, version and meta tags of the leaf at [path], from one
    lookup. The version is a monotone per-leaf update counter, 0 on
    insert. *)

val set_meta : t -> path:Path.t -> string list -> unit
(** Attach application-level tags (e.g. media type) used by receivers
    to scope repair interest. [Invalid_argument] if absent. *)

(* lint: allow U001 (a) used by test "meta in digest" *)
val meta : t -> Path.t -> string list

(* lint: allow U001 (a) used by test "digest_list" *)
val digest : t -> Path.t -> Digest.t option
val root_digest : t -> Digest.t
(** The root summary announced on the cold channel. An empty tree is
    an interior node with no children: [MD5("4:node16:" · 0¹⁶)], with
    [0¹⁶] sixteen zero bytes. *)

val children : t -> Path.t -> Wire.child list
(** Name-ordered children with their digests, kinds and meta tags —
    the "next level signatures" a sender returns for a repair query.
    Empty for leaves and absent paths. *)

val diff : t -> Path.t -> Wire.child list -> Wire.child list * string list
(** [diff t path remote] compares a sender's signatures for [path]
    with the local children there. The first list holds the remote
    children that are missing locally or whose digest differs, in
    [remote]'s order; the second, the names of local children that
    [remote] does not list, in name order. An absent [path] gives
    [(remote, [])]. One pass over [remote]: each name is first tried
    just past where the previous lookup ended, which costs O(1) per
    child when [remote] lists the local names in name order, as
    {!children} produces them, and a binary search otherwise. No map
    is built, and when nothing diverges nothing is allocated beyond
    the result pair. *)

val leaf_count : t -> int
(* lint: allow U001 (a) used by test "put/find" *)
val node_count : t -> int
(** Nodes including interior ones, excluding the root. *)

val iter_leaves : t -> (Path.t -> string -> unit) -> unit
(** In name order. *)

val matching_leaves : t -> t -> int * int
(** [matching_leaves a b] is [(leaves, matching)]: the leaves of [a],
    and those of them at whose path [b] has a node (of either kind)
    with an equal digest. One merge walk down both trees. It compares
    digests at leaves, and at interior nodes whose digests are fresh
    on both sides, where an equal digest counts the whole subtree. It
    descends through an interior node with a stale digest instead of
    rehashing it, so counting never hashes an interior node. *)

(* lint: allow U001 (a) used by test "remove" *)
val payload_bits : t -> int
(** Total payload size, bits — used for bandwidth accounting. *)

(* lint: allow U001 (a) used by test "order independence" *)
val equal : t -> t -> bool
(** Digest-based comparison of two trees. *)

val check : t -> (unit, string) result
(** The legality of the cached digest state: [Ok ()] when every
    interior node whose digest is fresh agrees with its children —
    each term is [MD5(⟦name⟧ · ⟦folded digest⟧)], [A] is the XOR of the
    terms, the node's digest is the MD5 of [⟦"node"⟧ · ⟦A⟧], each fresh
    child's digest is the one folded in, and the node's leaf count is
    its children's sum. [Error] names the first node that breaks it.
    Reads no digest, so it refreshes nothing. *)
