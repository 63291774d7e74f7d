(** Phase 1 of the whole-program analyzer: per-compilation-unit
    summaries of module-level mutable state, top-level definitions
    (references, applications, allocation sites, [@hot] marks) and the
    closures handed to [Domain.spawn] / [Parallel] task slots. Phase 2
    ({!Race_rules}, {!Alloc_rules}) checks the R/A families against
    the merged program. The scan is syntactic and conservative: it
    over-approximates reachability, never under-approximates. *)

(** Flat module-alias environment (last binding wins):
    [module U = Unix] makes [U.gettimeofday] expand to
    [Unix.gettimeofday]. Shared with {!Scan} so the single-file
    D-rules see through aliases too. *)
module Aliases : sig
  type t

  val empty : t
  val add : t -> string -> string list -> t
  val expand : t -> string list -> string list
end

type mkind = Ref_cell | Container | Lazy_block | Mutable_record | Derived

val mkind_name : mkind -> string

type mutable_global = { m_name : string; m_line : int; m_kind : mkind }

type alloc = {
  a_rule : string;  (** "A001" closure, "A002" block, "A004" list *)
  a_line : int;
  a_col : int;
  a_region : string;  (** innermost [@hot] binding name, [""] when none *)
  a_what : string;
}

type call = {
  c_path : string;  (** alias-expanded dotted path *)
  c_nargs : int;  (** non-optional arguments supplied *)
  c_line : int;
  c_col : int;
  c_region : string;
}

type def = {
  d_name : string;
  d_line : int;
  d_arity : int;  (** non-optional leading parameters *)
  d_hot : bool;
  d_builds_mutable : bool;
  d_refs : string list;
  d_calls : call list;
  d_allocs : alloc list;
}

type spawn_kind = Domain_spawn | Task_slot

type spawn = {
  s_line : int;
  s_col : int;
  s_kind : spawn_kind;
  s_encl : string;  (** enclosing top-level definition *)
  s_refs : string list;
  s_unresolved : bool;
      (** true when the task expression mentions a bare name that may
          be a local closure — phase 2 then widens to the enclosing
          definition's references *)
}

type unit_summary = {
  u_name : string;
  u_file : string;
  u_mutables : mutable_global list;
  u_defs : def list;
  u_spawns : spawn list;
}

type program = unit_summary list

val unit_name_of_file : string -> string
(** ["lib/sim/engine.ml"] → ["Engine"] *)

val scan_structure : file:string -> Parsetree.structure -> unit_summary

type export = { e_name : string; e_line : int; e_col : int }
(** A [val] (or [external]) of an interface; members of nested
    [module M : sig ... end] blocks are dotted (["Counter.make"]). *)

val exports_of_signature : Parsetree.signature -> export list
(** Every exported value in source order. Module types and
    [include]s are skipped: they name no value of this unit. *)

val to_string : program -> string
(** Line-oriented, tab-separated serialization for [--summary-out];
    [of_string (to_string p) = p]. *)

exception Bad_line of int * string

(* lint: allow U001 (a) used by test "summary serialization round-trips" *)
val of_string : string -> program
(** Inverse of {!to_string}; raises {!Bad_line} on malformed input. *)

(* lint: allow U001 (a) used by test "of_string rejects garbage" *)
val of_string_opt : string -> program option
