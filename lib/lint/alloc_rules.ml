(* Phase 2, A-family: allocation checks over [@hot] definitions and
   the hot_paths config. A definition is hot when its binding carries
   [@hot] or Config.hot_paths names it; additionally, any allocation
   recorded inside a nested [@hot] binding (a_region <> "") is
   checked wherever it lives. The rules are per-definition, not
   transitive: amortized slow paths (table growth, bucket compaction)
   belong in separate unannotated helpers — that split is the
   contract, see DESIGN.md §10. *)

let is_hot (u : Summary.unit_summary) (d : Summary.def) =
  d.Summary.d_hot
  || Config.is_hot_path ~unit_name:u.Summary.u_name ~def_name:d.Summary.d_name

let region_name (d : Summary.def) region =
  if region = "" then d.Summary.d_name else region

let check_def g (u : Summary.unit_summary) (d : Summary.def) =
  let hot_def = is_hot u d in
  let findings = ref [] in
  let emit ~line ~col rule message =
    findings :=
      Finding.v ~file:u.Summary.u_file ~line ~col ~rule message :: !findings
  in
  List.iter
    (fun (a : Summary.alloc) ->
      if hot_def || a.Summary.a_region <> "" then
        emit ~line:a.Summary.a_line ~col:a.Summary.a_col a.Summary.a_rule
          (Printf.sprintf "%s allocated in hot path %s.%s" a.Summary.a_what
             u.Summary.u_name
             (region_name d a.Summary.a_region)))
    d.Summary.d_allocs;
  (* A003: partial application — fewer non-optional arguments supplied
     than every candidate callee's arity (all-candidates agreement
     keeps duplicate-basename resolution from manufacturing noise) *)
  List.iter
    (fun (c : Summary.call) ->
      if hot_def || c.Summary.c_region <> "" then
        let callees =
          List.concat_map (Callgraph.find_def g)
            (Callgraph.resolve g ~current:u.Summary.u_name c.Summary.c_path)
        in
        let partial_of_all =
          callees <> []
          && List.for_all
               (fun (_, (cd : Summary.def)) ->
                 cd.Summary.d_arity > 0
                 && c.Summary.c_nargs < cd.Summary.d_arity)
               callees
        in
        if partial_of_all then
          let _, cd =
            match callees with c :: _ -> c | [] -> assert false
          in
          emit ~line:c.Summary.c_line ~col:c.Summary.c_col "A003"
            (Printf.sprintf
               "partial application of %s (%d of %d args) in hot path %s.%s \
                allocates a closure"
               c.Summary.c_path c.Summary.c_nargs cd.Summary.d_arity
               u.Summary.u_name
               (region_name d c.Summary.c_region)))
    d.Summary.d_calls;
  List.rev !findings

let check g (program : Summary.program) =
  List.concat_map
    (fun (u : Summary.unit_summary) ->
      List.concat_map (check_def g u) u.Summary.u_defs)
    program
