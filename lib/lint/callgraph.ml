(* Cross-unit name resolution and reachability over the phase-1
   summaries. A node is a [(unit name, member)] pair; members of
   nested modules are dotted ("Pcg.next"). Duplicate unit basenames
   (two directories both holding [open_loop.ml]) are kept side by
   side and every resolution returns all candidates — conservative in
   the over-approximating direction. *)

type node = string * string

type t = {
  units : (string, Summary.unit_summary) Hashtbl.t; (* name -> units, dup ok *)
  defs : (node, Summary.unit_summary * Summary.def) Hashtbl.t;
  mutables : (node, Summary.unit_summary * Summary.mutable_global) Hashtbl.t;
}

let find_def t node = Hashtbl.find_all t.defs node
let find_mutable t node = Hashtbl.find_all t.mutables node
let is_unit t name = Hashtbl.mem t.units name

(* Resolve a (possibly dotted, alias-expanded) reference occurring in
   unit [current] to candidate nodes that actually exist in the
   program. Unknown externals (Hashtbl.create, Unix.time, local
   variables) resolve to []. *)
let resolve t ~current path =
  let exists node = Hashtbl.mem t.defs node || Hashtbl.mem t.mutables node in
  let components = String.split_on_char '.' path in
  let candidates =
    match components with
    | [] -> []
    | [ c ] -> [ (current, c) ]
    | _ ->
        (* every component naming a known unit splits the path: in
           Softstate_sim.Parallel.map the library wrapper is not a
           unit but Parallel is, and in Softstate_sim.Parallel.Stats.x
           both Parallel (nested module Stats) and the unrelated unit
           Stats are candidates; the existence filter below keeps the
           real one *)
        let rec splits = function
          | c :: (_ :: _ as rest) ->
              let tail = splits rest in
              if is_unit t c then (c, String.concat "." rest) :: tail else tail
          | _ -> []
        in
        let cross = splits components in
        (* a dotted path may also name a nested module of the current
           unit (module Config = struct ... end) *)
        (current, path) :: cross
  in
  List.filter exists candidates

(* Does [d], defined in [u], fully apply some callee node [p] holds
   for? *)
let fully_applies t (u : Summary.unit_summary) (d : Summary.def) p =
  List.exists
    (fun (c : Summary.call) ->
      List.exists
        (fun callee ->
          List.exists
            (fun (_, (cd : Summary.def)) ->
              c.Summary.c_nargs >= cd.Summary.d_arity && p callee)
            (find_def t callee))
        (resolve t ~current:u.Summary.u_name c.Summary.c_path))
    d.Summary.d_calls

(* Does evaluating a full application of [node] construct fresh
   mutable state? Memoized DFS over full-application call edges; a
   cycle is resolved to [false] (constructors are not recursive). *)
let app_builds t =
  let memo = Hashtbl.create 64 in
  let rec go visiting node =
    match Hashtbl.find_opt memo node with
    | Some b -> b
    | None ->
        if List.mem node visiting then false
        else
          let result =
            List.exists
              (fun (u, (d : Summary.def)) ->
                d.Summary.d_builds_mutable
                || fully_applies t u d (go (node :: visiting)))
              (find_def t node)
          in
          Hashtbl.replace memo node result;
          result
  in
  go []

let build (program : Summary.program) =
  let t =
    { units = Hashtbl.create 64;
      defs = Hashtbl.create 512;
      mutables = Hashtbl.create 64 }
  in
  List.iter
    (fun (u : Summary.unit_summary) ->
      Hashtbl.add t.units u.Summary.u_name u;
      List.iter
        (fun (d : Summary.def) ->
          Hashtbl.add t.defs (u.Summary.u_name, d.Summary.d_name) (u, d))
        u.Summary.u_defs;
      List.iter
        (fun (m : Summary.mutable_global) ->
          Hashtbl.add t.mutables (u.Summary.u_name, m.Summary.m_name) (u, m))
        u.Summary.u_mutables)
    program;
  (* propagate: a zero-arity definition whose initializer fully
     applies a constructor of mutable state is itself a mutable
     global (a top-level [let calendar = Heap.create ()] counts; so
     would an initializer that applies [Heap.create] only under a
     staged [fun] — calls under a [fun] count too, which errs on the
     safe side) *)
  let builds = app_builds t in
  List.iter
    (fun (u : Summary.unit_summary) ->
      List.iter
        (fun (d : Summary.def) ->
          let node = (u.Summary.u_name, d.Summary.d_name) in
          if
            d.Summary.d_arity = 0
            && (not d.Summary.d_builds_mutable)
            && (not (Hashtbl.mem t.mutables node))
            && fully_applies t u d builds
          then
            Hashtbl.add t.mutables node
              ( u,
                { Summary.m_name = d.Summary.d_name;
                  m_line = d.Summary.d_line;
                  m_kind = Summary.Derived } ))
        u.Summary.u_defs)
    program;
  t

(* Every node reachable from [refs] (references occurring in
   [from_unit]), each with the chain of definitions walked to reach
   it, outermost first. Breadth-first, so the recorded chain is a
   shortest path — the most readable explanation for a finding. *)
let reachable t ~from_unit refs =
  let seen = Hashtbl.create 128 in
  let out = ref [] in
  let queue = Queue.create () in
  let enqueue ~current ~path r =
    List.iter
      (fun node ->
        if not (Hashtbl.mem seen node) then begin
          Hashtbl.replace seen node ();
          Queue.add (node, path) queue
        end)
      (resolve t ~current r)
  in
  List.iter (enqueue ~current:from_unit ~path:[]) refs;
  while not (Queue.is_empty queue) do
    let ((name, member) as node), path = Queue.take queue in
    out := (node, path) :: !out;
    List.iter
      (fun ((u : Summary.unit_summary), (d : Summary.def)) ->
        let hop = name ^ "." ^ member in
        List.iter
          (enqueue ~current:u.Summary.u_name ~path:(path @ [ hop ]))
          d.Summary.d_refs)
      (find_def t node)
  done;
  List.rev !out
