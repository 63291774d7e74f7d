(* Phase 2, R-family: domain-safety checks over the merged program
   summary. All three rules anchor their findings at the spawn site —
   that's the line a reviewer can act on — and name the reached state
   plus the call chain that reaches it. *)

let kind_str = function
  | Summary.Domain_spawn -> "Domain.spawn"
  | Summary.Task_slot -> "Parallel task"

let via = function
  | [] -> ""
  | path -> " via " ^ String.concat " -> " path

(* The task expression's own references, widened to the enclosing
   definition's when some reference may be a local closure whose body
   we cannot see from the spawn site. *)
let effective_refs (u : Summary.unit_summary) (s : Summary.spawn) =
  if not s.Summary.s_unresolved then s.Summary.s_refs
  else
    let encl_refs =
      List.concat_map
        (fun (d : Summary.def) ->
          if d.Summary.d_name = s.Summary.s_encl then d.Summary.d_refs else [])
        u.Summary.u_defs
    in
    List.sort_uniq String.compare (s.Summary.s_refs @ encl_refs)

let base_member member =
  match List.rev (String.split_on_char '.' member) with
  | m :: _ -> m
  | [] -> member

(* Rng members that create or derive an independent stream; anything
   else mutates / reads the generator cursor and counts as a draw. *)
let rng_safe member =
  match base_member member with
  | "split" | "create" | "of_seed" | "of_rng" | "copy" -> true
  | _ -> false

let check_spawn g (u : Summary.unit_summary) (s : Summary.spawn) =
  let refs = effective_refs u s in
  let reached = Callgraph.reachable g ~from_unit:u.Summary.u_name refs in
  let findings = ref [] in
  let emit rule message =
    findings :=
      Finding.v ~file:u.Summary.u_file ~line:s.Summary.s_line
        ~col:s.Summary.s_col ~rule message
      :: !findings
  in
  (* R001 / R002: reached mutable module state outside sync modules *)
  List.iter
    (fun ((name, member), path) ->
      if not (List.mem name Config.sync_modules) then
        match Callgraph.find_mutable g (name, member) with
        | [] -> ()
        | (mu, m) :: _ ->
            let rule =
              if m.Summary.m_kind = Summary.Lazy_block then "R002" else "R001"
            in
            emit rule
              (Printf.sprintf
                 "%s closure reaches mutable module state %s.%s (%s, defined \
                  at %s:%d)%s"
                 (kind_str s.Summary.s_kind) name member
                 (Summary.mkind_name m.Summary.m_kind)
                 mu.Summary.u_file m.Summary.m_line (via path)))
    reached;
  (* R003: the task draws from an Rng it neither created nor split *)
  let draws =
    List.filter
      (fun ((name, member), _) -> name = "Rng" && not (rng_safe member))
      reached
  in
  let creates =
    List.exists
      (fun ((name, member), _) -> name = "Rng" && rng_safe member)
      reached
  in
  let encl_splits =
    (* the spawning definition itself may split per-task streams
       before building the closures *)
    List.exists
      (fun (d : Summary.def) ->
        d.Summary.d_name = s.Summary.s_encl
        && List.exists
             (fun r ->
               match List.rev (String.split_on_char '.' r) with
               | "split" :: "Rng" :: _ -> true
               | _ -> false)
             d.Summary.d_refs)
      u.Summary.u_defs
  in
  (match draws with
  | (((_, member), path) : Callgraph.node * string list) :: _
    when (not creates) && not encl_splits ->
      emit "R003"
        (Printf.sprintf
           "%s closure draws from a shared Rng (Rng.%s%s) without \
            Rng.split/create in the task or spawning definition"
           (kind_str s.Summary.s_kind) member (via path))
  | _ -> ());
  List.rev !findings

let check g (program : Summary.program) =
  List.concat_map
    (fun (u : Summary.unit_summary) ->
      List.concat_map (check_spawn g u) u.Summary.u_spawns)
    program
