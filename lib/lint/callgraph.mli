(** Cross-unit name resolution and reachability over phase-1
    summaries. Nodes are [(unit name, member)] pairs; duplicate unit
    basenames keep all candidates (conservative). [build] also
    propagates mutability: a zero-arity definition whose initializer
    fully applies a constructor of mutable state becomes a [Derived]
    mutable global. *)

type node = string * string

type t

val build : Summary.program -> t

val resolve : t -> current:string -> string -> node list
(** Candidate nodes for a reference string occurring in unit
    [current]; only nodes that exist in the program are returned. *)

val find_def : t -> node -> (Summary.unit_summary * Summary.def) list
val find_mutable :
  t -> node -> (Summary.unit_summary * Summary.mutable_global) list

val reachable :
  t -> from_unit:string -> string list -> (node * string list) list
(** Every node reachable from the given references, each with the
    (shortest) chain of definitions walked to reach it. *)
