let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path >= 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let within path dir =
  let p = normalize path and d = normalize dir in
  starts_with ~prefix:(d ^ "/") p || contains p ("/" ^ d ^ "/")

let is_file path file =
  let p = normalize path in
  p = file
  || String.length p > String.length file
     && String.sub p
          (String.length p - String.length file - 1)
          (String.length file + 1)
        = "/" ^ file

let enabled ~path ~rule =
  match rule with
  | "D001" ->
      not (is_file path "lib/util/rng.ml" || is_file path "lib/util/rng.mli")
  | "D002" -> not (within path "bench")
  | "D003" ->
      within path "lib/net" || within path "lib/core"
      || within path "lib/sstp" || within path "lib/check"
  | "D004" -> within path "lib" || within path "bin"
  | "D005" -> within path "lib"
  | "M001" -> within path "lib"
  | "R001" | "R002" | "R003" -> within path "lib" || within path "bin"
  | "A001" | "A002" | "A003" | "A004" -> within path "lib"
  | "U001" -> within path "lib" && not (within path "lib/queueing")
  | _ -> true

let counts_as_caller path = not (within path "test")

let mli_required path =
  Filename.check_suffix path ".ml" && enabled ~path ~rule:"M001"

(* Units whose state is the *approved* way to share data across
   domains; mutable state living in (or guarded by) these modules is
   exempt from the R-rules. *)
let sync_modules =
  [ "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Domain"; "Parallel" ]

(* Per-event code paths that must stay allocation-free, named as
   (unit, definition). This is the config-file complement to the
   [@hot] source attribute: entries here make the A-rules apply even
   to definitions whose source we'd rather not annotate. *)
let hot_paths =
  [ ("Engine", "step");
    ("Heap", "sift_up");
    ("Heap", "sift_down");
    ("Heap", "top");
    ("Heap", "drop_top");
    ("Rng", "bits64");
    ("Rng", "float");
    ("Link", "complete");
    ("Flat_topology", "degree");
    ("Flat_topology", "neighbor");
    ("Flat_topology", "neighbor_cable");
    ("Flat_topology", "is_cable_up");
    ("Flat_topology", "is_node_up");
    ("Flat_topology", "all_up");
    ("Seq_ring", "store");
    ("Seq_ring", "find") ]

let is_hot_path ~unit_name ~def_name =
  List.mem (unit_name, def_name) hot_paths
