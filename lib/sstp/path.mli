(** Hierarchical ADU names.

    SSTP names application data units with slash-separated paths
    ("conference/video/frame-7"). A path addresses a node in the
    namespace tree; the empty path addresses the root. *)

type t = string list
(** Segments, outermost first. Segments are non-empty and contain no
    '/'. *)

val root : t
val of_string : string -> t
(** ["a/b/c"] → [\["a"; "b"; "c"\]]. Leading/trailing/duplicate
    slashes are rejected with [Invalid_argument], as are empty
    segments; ["" ] is the root. *)

val to_string : t -> string
val is_root : t -> bool
val child : t -> string -> t
(** Append a segment (validated). *)

(* lint: allow U001 (a) used by test "relations" *)
val parent : t -> t option
(** [None] for the root. *)

(* lint: allow U001 (a) used by test "relations" *)
val basename : t -> string option
(* lint: allow U001 (a) used by test "relations" *)
val depth : t -> int
val is_prefix : prefix:t -> t -> bool
(** Whether [prefix] is an ancestor-or-self of the path. *)
