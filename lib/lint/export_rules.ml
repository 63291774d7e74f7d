(* Phase 2, U001: every node some other unit's definition refers to,
   then every export that is not among them. Bare names resolve only
   into their own unit, so only dotted references count: a unit that
   opened another would hide its callers, and U001 would over-report
   (the compiler then rejects the deletion). *)

let referenced (program : Summary.program) =
  let g = Callgraph.build program in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (u : Summary.unit_summary) ->
      if Config.counts_as_caller u.Summary.u_file then
        List.iter
          (fun (d : Summary.def) ->
            List.iter
              (fun r ->
                List.iter
                  (fun ((name, _) as node) ->
                    if name <> u.Summary.u_name then
                      Hashtbl.replace seen node ())
                  (Callgraph.resolve g ~current:u.Summary.u_name r))
              d.Summary.d_refs)
          u.Summary.u_defs)
    program;
  seen

let check (program : Summary.program) interfaces =
  let seen = referenced program in
  List.concat_map
    (fun (file, exports) ->
      let impl = Filename.remove_extension file ^ ".ml" in
      if
        not
          (List.exists
             (fun (u : Summary.unit_summary) -> u.Summary.u_file = impl)
             program)
      then []
      else
        let unit = Summary.unit_name_of_file file in
        List.filter_map
          (fun (e : Summary.export) ->
            if Hashtbl.mem seen (unit, e.Summary.e_name) then None
            else
              Some
                (Finding.v ~file ~line:e.Summary.e_line ~col:e.Summary.e_col
                   ~rule:"U001"
                   (Printf.sprintf
                      "%s.%s is exported but no other unit references it"
                      unit e.Summary.e_name)))
          exports)
    interfaces
