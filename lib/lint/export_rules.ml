(* Phase 2, U family: one pass over program code (outside test/)
   collects the nodes another unit refers to, the labels each node's
   applications pass (its own unit's too: a wrapper that forwards a
   label gives it more than one value in use; an unapplied reference
   passes none, as OCaml erases its optional arguments) and the
   constructors built, and the field labels read and assigned. Bare
   names resolve only into their own unit, so only dotted references
   count as another unit's. A constructor path also counts under its
   dotted suffixes ([Sstp.Session.Manual] as [Session.Manual]); a
   field, under its label alone. *)

let last name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let check g (program : Summary.program) =
  let seen = Hashtbl.create 1024 (* nodes another unit refers to *)
  and passed = Hashtbl.create 512 (* node -> labels its applications pass *)
  and built = Hashtbl.create 512
  and read = Hashtbl.create 512
  and set = Hashtbl.create 64 in
  let rec build = function
    | _ :: rest as path ->
        Hashtbl.replace built (String.concat "." path) ();
        if List.length rest >= 2 then build rest
    | [] -> ()
  in
  List.iter
    (fun (u : Summary.unit_summary) ->
      let resolve path f =
        List.iter
          (fun ((name, _) as node) -> f node (name <> u.Summary.u_name))
          (Callgraph.resolve g ~current:u.Summary.u_name path)
      in
      if Config.counts_as_caller u.Summary.u_file then
        List.iter
          (fun (d : Summary.def) ->
            List.iter
              (fun r ->
                resolve r (fun node cross ->
                    if cross then Hashtbl.replace seen node ()))
              d.Summary.d_refs;
            List.iter
              (fun (c : Summary.call) ->
                resolve c.Summary.c_path (fun node _ ->
                    let prev = Hashtbl.find_opt passed node in
                    Hashtbl.replace passed node
                      (c.Summary.c_labels @ Option.value ~default:[] prev)))
              d.Summary.d_calls;
            List.iter
              (fun k -> build (String.split_on_char '.' k))
              d.Summary.d_ctors;
            List.iter (fun l -> Hashtbl.replace read l ()) d.Summary.d_reads;
            List.iter (fun l -> Hashtbl.replace set l ()) d.Summary.d_sets)
          u.Summary.u_defs)
    program;
  List.concat_map
    (fun (u : Summary.unit_summary) ->
      let unit = u.Summary.u_name in
      let finding (e : Summary.export) rule fmt =
        Printf.ksprintf
          (Finding.v ~file:(u.Summary.u_file ^ "i") ~line:e.Summary.e_line
             ~col:e.Summary.e_col ~rule)
          ("%s.%s " ^^ fmt) unit e.Summary.e_name
      in
      let unused tbl msg (e : Summary.export) =
        if Hashtbl.mem tbl (last e.Summary.e_name) then None
        else Some (finding e "U003" "%s" msg)
      in
      List.concat_map
        (fun (e : Summary.export) ->
          let node = (unit, e.Summary.e_name) in
          if not (Hashtbl.mem seen node) then
            [ finding e "U001" "is exported but no other unit references it" ]
          else
            let labels =
              Option.value ~default:[] (Hashtbl.find_opt passed node)
            in
            e.Summary.e_optional
            |> List.filter (fun l -> not (List.mem l labels))
            |> List.map
                 (finding e "U002"
                    "takes ?%s but no program application passes it"))
        u.Summary.u_exports
      @ List.filter_map
          (fun (e : Summary.export) ->
            let name = e.Summary.e_name in
            if
              List.exists (Hashtbl.mem built)
                [ unit ^ "." ^ name; name; last name ]
            then None
            else
              Some
                (finding e "U002"
                   "is exported but no program expression builds it"))
          u.Summary.u_variants
      @ List.filter_map
          (unused read "is exported but no program reads it")
          u.Summary.u_fields
      @ List.filter_map
          (unused set "is mutable but no program assigns it")
          u.Summary.u_mutable_fields)
    program
