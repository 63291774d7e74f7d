(** Phase 1 of the whole-program analyzer: per-compilation-unit
    summaries of module-level mutable state, top-level definitions
    (references, applications with their labels, constructors built,
    record fields read and assigned, allocation sites, [@hot] marks),
    the closures handed to [Domain.spawn] / [Parallel] task slots, and
    the unit's interface (its [val]s with their optional labels, its
    variant constructors, its record fields).
    Phase 2 ({!Race_rules}, {!Alloc_rules}, {!Export_rules}) checks the
    R/A/U families against the merged program. The scan is syntactic
    and conservative: it over-approximates reachability, never
    under-approximates. *)

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
  c_labels : string list;  (** [~l] and [?l] alike; sorted, unique *)
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
  d_ctors : string list;  (** built in expressions; sorted, unique *)
  d_reads : string list;  (** labels in [e.f] and record patterns *)
  d_sets : string list;  (** labels assigned by [r.f <- v] *)
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

type export = {
  e_name : string;
  e_line : int;
  e_col : int;
  e_optional : string list;  (** optional labels, in source order *)
}
(** A [val] (or [external]) of an interface, or a variant constructor
    or record field [type.label] (no labels); nested
    [module M : sig ... end] members are dotted. *)

type unit_summary = {
  u_name : string;
  u_file : string;
  u_mutables : mutable_global list;
  u_defs : def list;
  u_spawns : spawn list;
  u_exports : export list;  (** the [.mli]'s values; [[]] without one *)
  u_variants : export list;  (** the [.mli]'s variant constructors *)
  u_fields : export list;  (** the [.mli]'s record fields *)
  u_mutable_fields : export list;  (** those declared [mutable] *)
}

type program = unit_summary list

val scan_structure : file:string -> Parsetree.structure -> unit_summary
(** With the interface lists empty, for {!with_interface}. *)

val with_interface : unit_summary -> Parsetree.signature -> unit_summary
(** Fill the interface lists from the unit's [.mli], in source order;
    module types and [include]s name nothing here. *)

val to_string : program -> string
(** Line-oriented, tab-separated serialization for [--summary-out];
    [of_string (to_string p) = p]. *)

exception Bad_line of int * string

(* lint: allow U001 (a) used by test "summary serialization round-trips" *)
val of_string : string -> program
(** Inverse of {!to_string}; raises {!Bad_line} on malformed input. *)
