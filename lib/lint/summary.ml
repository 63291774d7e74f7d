(* Phase 1 of the whole-program analyzer: one pass over every parsed
   compilation unit producing a per-unit summary — module-level
   mutable state, every top-level definition with its references,
   applications (with the labels they pass), constructors built, field
   labels read and assigned, and allocation sites, the closures handed
   to [Domain.spawn] / [Softstate_sim.Parallel] task slots, the [@hot]
   marks, and the unit's interface. Phase 2 ({!Race_rules}, {!Alloc_rules},
   {!Export_rules}) checks the R/A/U rule families against the merged
   program summary.

   Everything here is syntactic and deliberately conservative:

   - A bare lowercase identifier is recorded as a possible reference
     to a same-unit top-level definition; phase 2 drops it when no
     such definition exists. A local variable shadowing a top-level
     name therefore over-approximates reachability (never under).
   - Module aliases ([module U = Unix], [module P =
     Softstate_sim.Parallel]) are expanded through a flat,
     last-binding-wins environment.
   - A task argument whose references cannot all be resolved (a
     locally defined worker closure, say) falls back to the enclosing
     definition's full reference set. *)

open Parsetree

let flatten lid = try Longident.flatten lid with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l
let dotted = String.concat "."

(* ---- summary data model ---- *)

type mkind = Ref_cell | Container | Lazy_block | Mutable_record | Derived

(* Each kind's name in reports and in the serialized summary. *)
let mkind_names =
  [ (Ref_cell, "ref"); (Container, "container"); (Lazy_block, "lazy");
    (Mutable_record, "mutable-record"); (Derived, "derived") ]

let mkind_name k = List.assoc k mkind_names
let of_name names n =
  List.find_map (fun (k, m) -> if m = n then Some k else None) names

type mutable_global = { m_name : string; m_line : int; m_kind : mkind }

type alloc = {
  a_rule : string; (* "A001" closure | "A002" block | "A004" list *)
  a_line : int;
  a_col : int;
  a_region : string; (* innermost [@hot] binding, "" when none *)
  a_what : string;
}

type call = {
  c_path : string; (* alias-expanded dotted path *)
  c_nargs : int; (* non-optional arguments supplied *)
  c_labels : string list; (* ~l and ?l alike; sorted, deduplicated *)
  c_line : int;
  c_col : int;
  c_region : string;
}

type def = {
  d_name : string; (* dotted for nested modules *)
  d_line : int;
  d_arity : int; (* non-optional leading parameters *)
  d_hot : bool;
  d_builds_mutable : bool;
  d_refs : string list; (* sorted, deduplicated *)
  d_ctors : string list; (* built in expressions; sorted, deduplicated *)
  d_reads : string list; (* field labels read; sorted, deduplicated *)
  d_sets : string list; (* labels assigned by [<-]; likewise *)
  d_calls : call list;
  d_allocs : alloc list;
}

type spawn_kind = Domain_spawn | Task_slot

let spawn_kind_names = [ (Domain_spawn, "domain"); (Task_slot, "task") ]

type spawn = {
  s_line : int;
  s_col : int;
  s_kind : spawn_kind;
  s_encl : string; (* enclosing top-level definition *)
  s_refs : string list;
  s_unresolved : bool; (* some task ref may be a local closure *)
}

(* an interface value, or (with no labels) a variant constructor *)
type export = {
  e_name : string;
  e_line : int;
  e_col : int;
  e_optional : string list;
}

type unit_summary = {
  u_name : string;
  u_file : string;
  u_mutables : mutable_global list;
  u_defs : def list;
  u_spawns : spawn list;
  u_exports : export list;
  u_variants : export list;
  u_fields : export list; (* [type.label] *)
  u_mutable_fields : export list; (* the [mutable] ones, again *)
}

type program = unit_summary list

let unit_name_of_file file =
  let base = Filename.remove_extension (Filename.basename file) in
  String.capitalize_ascii base

(* ---- module-alias environment (flat, last binding wins) ---- *)

module Aliases = struct
  type t = (string * string list) list

  let empty = []
  let add t name path = (name, path) :: t

  let expand t path =
    let rec go fuel path =
      match path with
      | head :: rest when fuel > 0 -> (
          match List.assoc_opt head t with
          | Some repl when repl <> [ head ] -> go (fuel - 1) (repl @ rest)
          | _ -> path)
      | _ -> path
    in
    go 8 path
end

(* ---- syntactic classifiers ---- *)

let is_hot_attr (a : attribute) =
  match a.attr_name.txt with "hot" | "lint.hot" -> true | _ -> false

let has_hot_attrs attrs = List.exists is_hot_attr attrs

let rec arity_of e =
  match e.pexp_desc with
  | Pexp_fun (Optional _, _, _, body) -> arity_of body
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_function _ -> 1
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> arity_of e
  | _ -> 0

(* The leading parameter spine of a binding: those lambda nodes define
   the function rather than allocate per call, so A001 skips them. *)
let spine_nodes e =
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> go (e :: acc) body
    | Pexp_constraint (inner, _) | Pexp_newtype (_, inner) ->
        go (e :: acc) inner
    | Pexp_function _ -> e :: acc
    | _ -> acc
  in
  go [] e

(* Applications of these construct fresh mutable storage. *)
let mutable_builder path =
  match path with
  | [ "ref" ] -> Some Ref_cell
  | [ ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Atomic" | "Weak"
      | "Dynarray");
      ("create" | "make") ] ->
      Some Container
  | [ ("Array" | "Bytes" | "Bigarray");
      ("make" | "create" | "init" | "create_float" | "make_matrix") ] ->
      Some Container
  | _ -> None

(* Applications of these allocate a heap block per call (A002). *)
let block_allocator path =
  match path with
  | [ "ref" ] -> Some "ref cell"
  | [ ("Hashtbl" | "Buffer" | "Queue" | "Stack"); "create" ] ->
      Some (dotted path)
  | [ ("Array" | "Bytes"); ("make" | "create" | "init" | "append" | "sub"
      | "copy" | "concat" | "create_float") ] ->
      Some (dotted path)
  | [ "String"; ("make" | "init" | "sub" | "concat" | "cat") ] ->
      Some (dotted path)
  | [ "Printf"; ("sprintf" | "printf" | "eprintf") ]
  | [ "Format"; ("sprintf" | "asprintf") ] ->
      Some (dotted path)
  | _ -> None

(* List-building operations (A004). *)
let list_builder path =
  match path with
  | [ "List";
      ( "map" | "mapi" | "map2" | "filter" | "filter_map" | "filteri"
      | "init" | "append" | "concat" | "concat_map" | "rev" | "rev_map"
      | "rev_append" | "sort" | "stable_sort" | "fast_sort" | "sort_uniq"
      | "of_seq" | "cons" | "split" | "combine" | "merge" | "flatten" ) ]
  | [ "@" ] ->
      Some (dotted path)
  | _ -> None

let ident_head e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | _ -> None

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* ---- the per-unit scan ---- *)

type scan_state = {
  mutable aliases : Aliases.t;
  mutable prefix : string; (* the module path being walked, "" at top *)
  mutable mutable_fields : string list; (* labels declared mutable *)
  mutable mutables : mutable_global list;
  mutable defs : def list;
  mutable spawns : spawn list;
}

type def_state = {
  mutable refs : string list;
  mutable ctors : string list;
  mutable reads : string list;
  mutable sets : string list;
  mutable calls : call list;
  mutable allocs : alloc list;
  mutable builds : mkind option;
  mutable regions : string list; (* innermost [@hot] first *)
}

let resolve st path = strip_stdlib (Aliases.expand st.aliases path)

(* A reference as written, and as a member of each enclosing module:
   inside [module M = struct ... end] a bare [x] may name [M.x]. Phase
   2 drops the candidates no definition matches. *)
let scoped st r =
  let rec outward acc p =
    if p = "" then acc
    else
      let acc = (p ^ "." ^ r) :: acc in
      match String.rindex_opt p '.' with
      | Some i -> outward acc (String.sub p 0 i)
      | None -> acc
  in
  outward [ r ] st.prefix

let nonopt_args args =
  List.length
    (List.filter (function Asttypes.Optional _, _ -> false | _ -> true) args)

let labels_of args =
  List.sort_uniq String.compare
    (List.filter_map
       (function Asttypes.(Labelled l | Optional l), _ -> Some l | _ -> None)
       args)

(* Collect every resolved identifier under [e]; [`true`] in the result
   when some bare identifier could name a local binding we cannot
   follow. *)
let collect_refs st e =
  let refs = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        refs := scoped st (dotted (resolve st (flatten txt))) @ !refs
    | _ -> ());
    default.expr it e
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.expr it e;
  List.sort_uniq String.compare !refs

let pattern_names p =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
    | _ -> ());
    default.pat it p
  in
  let it = { default with Ast_iterator.pat } in
  it.Ast_iterator.pat it p;
  List.rev !acc

(* Walk one top-level binding body, filling [ds]. *)
let scan_body st ds ~encl body =
  (* lambda nodes that *define* functions (the parameter spine of the
     binding and of any nested [@hot] binding) are not per-call
     closure allocations *)
  let spines = ref (spine_nodes body) in
  let region () = match ds.regions with r :: _ -> r | [] -> "" in
  let note_alloc loc rule what =
    let line, col = line_col loc in
    ds.allocs <-
      { a_rule = rule; a_line = line; a_col = col; a_region = region ();
        a_what = what }
      :: ds.allocs
  in
  let note_build k =
    match ds.builds with None -> ds.builds <- Some k | Some _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  (* a construction or [{ r with ... }] reads none of its labels *)
  let rec expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        ds.refs <- scoped st (dotted (resolve st (flatten txt))) @ ds.refs
    | Pexp_field (_, { txt; _ }) -> ds.reads <- Longident.last txt :: ds.reads
    | Pexp_setfield (_, { txt; _ }, _) ->
        ds.sets <- Longident.last txt :: ds.sets
    | Pexp_fun _ | Pexp_function _ ->
        if not (List.memq e !spines) then
          note_alloc e.pexp_loc "A001" "closure construction"
    | Pexp_tuple _ -> note_alloc e.pexp_loc "A002" "tuple"
    | Pexp_record (fields, _) ->
        note_alloc e.pexp_loc "A002" "record";
        if
          List.exists
            (fun ({ Location.txt; _ }, _) ->
              match List.rev (flatten txt) with
              | label :: _ -> List.mem label st.mutable_fields
              | [] -> false)
            fields
        then note_build Mutable_record
    | Pexp_array _ ->
        note_alloc e.pexp_loc "A002" "array literal";
        note_build Container
    | Pexp_lazy _ ->
        note_alloc e.pexp_loc "A002" "lazy block";
        note_build Lazy_block
    | Pexp_construct ({ txt; _ }, arg) -> (
        (match flatten txt with
        | [ ("()" | "[]" | "::" | "true" | "false") ] -> ()
        | path -> ds.ctors <- dotted (resolve st path) :: ds.ctors);
        match (List.rev (flatten txt), arg) with
        | "::" :: _, Some _ -> note_alloc e.pexp_loc "A004" "list cons"
        | name :: _, Some _ ->
            note_alloc e.pexp_loc "A002" ("constructor " ^ name)
        | _ -> ())
    | Pexp_variant (tag, Some _) ->
        note_alloc e.pexp_loc "A002" ("variant `" ^ tag)
    | Pexp_apply (f, args) -> (
        match ident_head f with
        | None -> ()
        | Some raw ->
            let path = resolve st raw in
            let line, col = line_col e.pexp_loc in
            ds.calls <-
              { c_path = dotted path; c_nargs = nonopt_args args;
                c_labels = labels_of args; c_line = line; c_col = col;
                c_region = region () }
              :: ds.calls;
            (match mutable_builder path with
            | Some k -> note_build k
            | None -> ());
            (match block_allocator path with
            | Some what -> note_alloc e.pexp_loc "A002" what
            | None -> ());
            (match list_builder path with
            | Some what -> note_alloc e.pexp_loc "A004" what
            | None -> ());
            (match path with
            | [ "Domain"; "spawn" ] | [ "Domain"; "spawn_with_args" ] ->
                let task =
                  match args with (_, a) :: _ -> Some a | [] -> None
                in
                note_spawn st ds ~encl ~kind:Domain_spawn e.pexp_loc task
            | _ -> (
                match List.rev path with
                | fn :: "Parallel" :: _
                  when fn = "map" || fn = "map_list" ->
                    let task =
                      match List.rev args with
                      | (_, a) :: _ -> Some a
                      | [] -> None
                    in
                    note_spawn st ds ~encl ~kind:Task_slot e.pexp_loc task
                | _ -> ())))
    | Pexp_letmodule
        ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, _)
      ->
        st.aliases <- Aliases.add st.aliases name (flatten txt)
    | _ -> ());
    default.expr it e
  and note_spawn st ds ~encl ~kind loc task =
    let line, col = line_col loc in
    let refs, unresolved =
      match task with
      | None -> ([], true)
      | Some a ->
          let refs = collect_refs st a in
          let bare = List.exists (fun r -> not (String.contains r '.')) refs in
          (refs, bare)
    in
    st.spawns <-
      { s_line = line; s_col = col; s_kind = kind; s_encl = encl;
        s_refs = refs; s_unresolved = unresolved }
      :: st.spawns;
    ignore ds
  in
  let value_binding it vb =
    let hot = has_hot_attrs vb.pvb_attributes in
    if hot then begin
      let name =
        match pattern_names vb.pvb_pat with n :: _ -> n | [] -> "<anon>"
      in
      ds.regions <- name :: ds.regions;
      spines := spine_nodes vb.pvb_expr @ !spines;
      default.value_binding it vb;
      ds.regions <- (match ds.regions with _ :: rest -> rest | [] -> [])
    end
    else default.value_binding it vb
  in
  (* a record pattern reads each label it names, puns included *)
  let pat it p =
    (match p.ppat_desc with
    | Ppat_record (fs, _) ->
        List.iter
          (fun ({ Location.txt; _ }, _) ->
            ds.reads <- Longident.last txt :: ds.reads)
          fs
    | _ -> ());
    default.pat it p
  in
  let it = { default with Ast_iterator.expr; pat; value_binding } in
  it.Ast_iterator.expr it body

(* ---- structure traversal ---- *)

(* The structure a module expression defines, seen through signature
   constraints and functor parameters: a functor's body is code the
   program runs once per application. *)
let rec module_items me =
  match me.pmod_desc with
  | Pmod_structure items -> Some items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_items me
  | _ -> None

let scan_structure ~file str =
  let st =
    { aliases = Aliases.empty; prefix = ""; mutable_fields = []; mutables = [];
      defs = []; spawns = [] }
  in
  (* first pass: record labels declared mutable anywhere in the unit,
     so record literals built before the type declaration still
     classify *)
  let collect_mutable_fields item =
    match item.pstr_desc with
    | Pstr_type (_, tds) ->
        List.iter
          (fun td ->
            match td.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun ld ->
                    if ld.pld_mutable = Mutable then
                      st.mutable_fields <- ld.pld_name.txt :: st.mutable_fields)
                  labels
            | _ -> ())
          tds
    | _ -> ()
  in
  let rec collect_types_deep items =
    List.iter
      (fun item ->
        collect_mutable_fields item;
        match item.pstr_desc with
        | Pstr_module { pmb_expr = m; _ } | Pstr_include { pincl_mod = m; _ }
          ->
            Option.iter collect_types_deep (module_items m)
        | _ -> ())
      items
  in
  collect_types_deep str;
  (* One top-level definition (a binding, or an evaluated expression
     with arity 0); a zero-arity one that builds mutable state is a
     mutable global. *)
  let add_def ~prefix ~name ~line ~arity ~hot body =
    let qname = if prefix = "" then name else prefix ^ "." ^ name in
    let ds =
      { refs = []; ctors = []; reads = []; sets = []; calls = []; allocs = [];
        builds = None; regions = [] }
    in
    st.prefix <- prefix;
    scan_body st ds ~encl:qname body;
    st.defs <-
      { d_name = qname; d_line = line; d_arity = arity; d_hot = hot;
        d_builds_mutable = ds.builds <> None;
        d_refs = List.sort_uniq String.compare ds.refs;
        d_ctors = List.sort_uniq String.compare ds.ctors;
        d_reads = List.sort_uniq String.compare ds.reads;
        d_sets = List.sort_uniq String.compare ds.sets;
        d_calls = List.rev ds.calls;
        d_allocs = List.rev ds.allocs }
      :: st.defs;
    match ds.builds with
    | Some k when arity = 0 ->
        st.mutables <-
          { m_name = qname; m_line = line; m_kind = k } :: st.mutables
    | _ -> ()
  in
  let rec walk ~prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let line, _ = line_col vb.pvb_loc in
                let name =
                  match pattern_names vb.pvb_pat with
                  | [ n ] -> n
                  | [] -> Printf.sprintf "_init_%d" line
                  | ns -> String.concat "," ns
                in
                add_def ~prefix ~name ~line ~arity:(arity_of vb.pvb_expr)
                  ~hot:(has_hot_attrs vb.pvb_attributes) vb.pvb_expr)
              vbs
        | Pstr_eval (e, _) ->
            let line, _ = line_col item.pstr_loc in
            add_def ~prefix ~name:(Printf.sprintf "_eval_%d" line) ~line
              ~arity:0 ~hot:false e
        | Pstr_module { pmb_name = { txt = Some n; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_ident { txt; _ } ->
                st.aliases <- Aliases.add st.aliases n (flatten txt)
            | _ ->
                Option.iter
                  (walk ~prefix:(if prefix = "" then n else prefix ^ "." ^ n))
                  (module_items pmb_expr))
        | Pstr_include { pincl_mod; _ } ->
            Option.iter (walk ~prefix) (module_items pincl_mod)
        | _ -> ())
      items
  in
  walk ~prefix:"" str;
  { u_name = unit_name_of_file file;
    u_file = file;
    u_mutables = List.rev st.mutables;
    u_defs = List.rev st.defs;
    u_spawns = List.rev st.spawns;
    u_exports = [];
    u_variants = [];
    u_fields = [];
    u_mutable_fields = [] }

(* ---- interface exports (the U001/U002/U003 subjects) ---- *)

let rec optional_labels ty =
  match ty.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_labels rest
  | _ -> []

let export prefix { Location.txt; loc } e_optional =
  let line, col = line_col loc in
  { e_name = prefix ^ txt; e_line = line; e_col = col; e_optional }

let with_interface u sg =
  let vals = ref [] and ctors = ref [] and fields = ref [] and mut = ref [] in
  let rec walk prefix =
    List.iter (fun item ->
        match item.psig_desc with
        | Psig_value { pval_name; pval_type; _ } ->
            vals := export prefix pval_name (optional_labels pval_type) :: !vals
        | Psig_type (_, tds) ->
            List.iter
              (fun td ->
                match td.ptype_kind with
                | Ptype_variant cds ->
                    List.iter
                      (fun cd ->
                        ctors := export prefix cd.pcd_name [] :: !ctors)
                      cds
                | Ptype_record lds ->
                    List.iter
                      (fun ld ->
                        let f =
                          export (prefix ^ td.ptype_name.txt ^ ".")
                            { ld.pld_name with loc = ld.pld_loc } []
                        in
                        fields := f :: !fields;
                        if ld.pld_mutable = Mutable then mut := f :: !mut)
                      lds
                | _ -> ())
              tds
        | Psig_module
            { pmd_name = { txt = Some n; _ };
              pmd_type = { pmty_desc = Pmty_signature sub; _ }; _ } ->
            walk (prefix ^ n ^ ".") sub
        | _ -> ())
  in
  walk "" sg;
  { u with
    u_exports = List.rev !vals;
    u_variants = List.rev !ctors;
    u_fields = List.rev !fields;
    u_mutable_fields = List.rev !mut }

(* ---- serialization: one record per line, tab-separated ----

   Field values never contain tabs or newlines (OCaml identifiers and
   repo paths don't); [to_string]/[of_string] round-trip exactly. A
   unit line opens a unit, followed by its mut, def, spawn, val,
   variant, field and mfield lines in that order; a def line is
   followed by its ref, ctor, read, set, call and alloc lines, a spawn
   line by its sref lines. *)

let bool_field b = if b then "1" else "0"

(* A label list is one comma-separated field; labels hold no commas. *)
let list_field = String.concat ","
let of_list_field = function "" -> [] | s -> String.split_on_char ',' s

let to_buffer buf (u : unit_summary) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "unit\t%s\t%s" u.u_name u.u_file;
  List.iter
    (fun m -> line "mut\t%s\t%d\t%s" m.m_name m.m_line (mkind_name m.m_kind))
    u.u_mutables;
  List.iter
    (fun d ->
      line "def\t%s\t%d\t%d\t%s\t%s" d.d_name d.d_line d.d_arity
        (bool_field d.d_hot)
        (bool_field d.d_builds_mutable);
      List.iter (line "ref\t%s") d.d_refs;
      List.iter (line "ctor\t%s") d.d_ctors;
      List.iter (line "read\t%s") d.d_reads;
      List.iter (line "set\t%s") d.d_sets;
      List.iter
        (fun c ->
          line "call\t%s\t%d\t%d\t%d\t%s\t%s" c.c_path c.c_nargs c.c_line
            c.c_col c.c_region (list_field c.c_labels))
        d.d_calls;
      List.iter
        (fun a ->
          line "alloc\t%s\t%d\t%d\t%s\t%s" a.a_rule a.a_line a.a_col
            a.a_region a.a_what)
        d.d_allocs)
    u.u_defs;
  List.iter
    (fun s ->
      line "spawn\t%s\t%d\t%d\t%s\t%s"
        (List.assoc s.s_kind spawn_kind_names)
        s.s_line s.s_col s.s_encl (bool_field s.s_unresolved);
      List.iter (line "sref\t%s") s.s_refs)
    u.u_spawns;
  let export tag e =
    line "%s\t%s\t%d\t%d\t%s" tag e.e_name e.e_line e.e_col
      (list_field e.e_optional)
  in
  List.iter (export "val") u.u_exports;
  List.iter (export "variant") u.u_variants;
  List.iter (export "field") u.u_fields;
  List.iter (export "mfield") u.u_mutable_fields

let to_string program =
  let buf = Buffer.create 4096 in
  List.iter (to_buffer buf) program;
  Buffer.contents buf

exception Bad_line of int * string

(* Recursive descent over the numbered lines: [run item] parses the
   leading lines [item] accepts (it sees a line's fields and the lines
   after it, from which it may take its own children). Any line left
   over where a record of another kind stood is malformed. *)
let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i raw -> (i + 1, raw))
    |> List.filter (fun (_, raw) -> raw <> "")
  in
  let bad (n, raw) = raise (Bad_line (n, raw)) in
  let int l s = match int_of_string_opt s with Some n -> n | None -> bad l in
  let rec run item acc = function
    | ((_, raw) as l) :: rest as lines -> (
        match item l (String.split_on_char '\t' raw) rest with
        | Some (x, rest) -> run item (x :: acc) rest
        | None -> (List.rev acc, lines))
    | [] -> (List.rev acc, [])
  in
  let leaf f l fields rest = Option.map (fun x -> (x, rest)) (f l fields) in
  let path tag =
    leaf (fun _ -> function [ t; p ] when t = tag -> Some p | _ -> None)
  in
  let mut =
    leaf (fun l -> function
      | [ "mut"; name; line; kind ] -> (
          match of_name mkind_names kind with
          | Some k -> Some { m_name = name; m_line = int l line; m_kind = k }
          | None -> bad l)
      | _ -> None)
  in
  let call =
    leaf (fun l -> function
      | [ "call"; path; nargs; line; col; region; labels ] ->
          Some
            { c_path = path; c_nargs = int l nargs;
              c_labels = of_list_field labels; c_line = int l line;
              c_col = int l col; c_region = region }
      | _ -> None)
  in
  let alloc =
    leaf (fun l -> function
      | [ "alloc"; rule; line; col; region; what ] ->
          Some
            { a_rule = rule; a_line = int l line; a_col = int l col;
              a_region = region; a_what = what }
      | _ -> None)
  in
  let def l fields rest =
    match fields with
    | [ "def"; name; line; arity; hot; builds ] ->
        let d_refs, rest = run (path "ref") [] rest in
        let d_ctors, rest = run (path "ctor") [] rest in
        let d_reads, rest = run (path "read") [] rest in
        let d_sets, rest = run (path "set") [] rest in
        let d_calls, rest = run call [] rest in
        let d_allocs, rest = run alloc [] rest in
        Some
          ( { d_name = name; d_line = int l line; d_arity = int l arity;
              d_hot = hot = "1"; d_builds_mutable = builds = "1"; d_refs;
              d_ctors; d_reads; d_sets; d_calls; d_allocs },
            rest )
    | _ -> None
  in
  let spawn l fields rest =
    match fields with
    | [ "spawn"; kind; line; col; encl; unresolved ] ->
        let s_kind =
          match of_name spawn_kind_names kind with Some k -> k | None -> bad l
        in
        let s_refs, rest = run (path "sref") [] rest in
        Some
          ( { s_line = int l line; s_col = int l col; s_kind; s_encl = encl;
              s_refs; s_unresolved = unresolved = "1" },
            rest )
    | _ -> None
  in
  let export tag =
    leaf (fun l -> function
      | [ t; name; line; col; labels ] when t = tag ->
          Some
            { e_name = name; e_line = int l line; e_col = int l col;
              e_optional = of_list_field labels }
      | _ -> None)
  in
  let unit _ fields rest =
    match fields with
    | [ "unit"; name; file ] ->
        let u_mutables, rest = run mut [] rest in
        let u_defs, rest = run def [] rest in
        let u_spawns, rest = run spawn [] rest in
        let u_exports, rest = run (export "val") [] rest in
        let u_variants, rest = run (export "variant") [] rest in
        let u_fields, rest = run (export "field") [] rest in
        let u_mutable_fields, rest = run (export "mfield") [] rest in
        Some
          ( { u_name = name; u_file = file; u_mutables; u_defs; u_spawns;
              u_exports; u_variants; u_fields; u_mutable_fields },
            rest )
    | _ -> None
  in
  match run unit [] lines with program, [] -> program | _, l :: _ -> bad l
