(** Weighted hierarchical link-sharing.

    SSTP (§6.1, Figure 12) splits session bandwidth with a class
    hierarchy — the paper suggests CBQ or H-FSC. This module provides
    the piece of those systems the framework needs: a tree of
    weighted classes where each interior node shares its parent's
    allocation among its children in proportion to weight, and
    selection descends from the root picking among backlogged
    subtrees with stride scheduling at every level.

    Example hierarchy from the paper:
    {v
              session
              /     \
           data    feedback
           /  \
         hot  cold
    v} *)

type t
type node

val create : unit -> t
(** A tree with only the root. *)

val root : t -> node

val add_child : t -> parent:node -> weight:float -> node
(** Attach a new class under [parent]. Only leaves may be marked
    backlogged; adding a child to a node that was used as a leaf is
    rejected once the node has been marked backlogged. *)

val set_weight : t -> node -> float -> unit
(** Re-weight a class relative to its siblings; the basis of adaptive
    reallocation when loss estimates move. *)

val set_backlogged : t -> node -> bool -> unit
(** Mark a leaf as having work. Interior nodes derive their state
    from their descendants. [Invalid_argument] on interior nodes. *)

val select : t -> node option
(** Descend from the root choosing the minimum-pass backlogged child
    at each level; returns the chosen leaf. *)

val charge : t -> node -> float -> unit
(** Charge served work to a leaf and every ancestor, advancing pass
    values at each level. *)
