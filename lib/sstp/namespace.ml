module StringMap = Map.Make (String)

type node = {
  mutable children : node StringMap.t;
  mutable payload : string option; (* Some for leaves *)
  mutable version : int;
  mutable meta : string list;
  mutable cached_digest : Digest.t option;
}

type t = {
  root : node;
  frame : Buffer.t; (* scratch for the framed parts of one digest *)
  mutable leaf_count : int;
  mutable node_count : int;
  mutable payload_bits : int;
}

let fresh_node () =
  { children = StringMap.empty; payload = None; version = 0; meta = [];
    cached_digest = None }

let create () =
  { root = fresh_node (); frame = Buffer.create 256; leaf_count = 0;
    node_count = 0; payload_bits = 0 }

let rec find_node node = function
  | [] -> Some node
  | seg :: rest -> (
      match StringMap.find_opt seg node.children with
      | None -> None
      | Some child -> find_node child rest)

(* Walk to [path], invalidating digest caches along the spine (the
   caller is about to mutate the endpoint), creating interior nodes as
   needed. *)
let rec reach_dirty t node = function
  | [] -> node
  | seg :: rest ->
      node.cached_digest <- None;
      let child =
        match StringMap.find_opt seg node.children with
        | Some c -> c
        | None ->
            let c = fresh_node () in
            node.children <- StringMap.add seg c node.children;
            t.node_count <- t.node_count + 1;
            c
      in
      reach_dirty t child rest

(* Invalidate caches along an existing spine without creating nodes. *)
let rec dirty_spine node = function
  | [] -> ()
  | seg :: rest -> (
      node.cached_digest <- None;
      match StringMap.find_opt seg node.children with
      | None -> ()
      | Some child -> dirty_spine child rest)

(* Validate before mutating so a rejected put leaves no debris. *)
let rec check_no_leaf_on_spine node = function
  | [] -> ()
  | seg :: rest -> (
      if node.payload <> None then
        invalid_arg "Namespace.put: path passes through a leaf";
      match StringMap.find_opt seg node.children with
      | None -> ()
      | Some child -> check_no_leaf_on_spine child rest)

let put t ~path ~payload =
  if path = [] then invalid_arg "Namespace.put: cannot put at the root";
  check_no_leaf_on_spine t.root path;
  let node = reach_dirty t t.root path in
  node.cached_digest <- None;
  match node.payload with
  | Some old ->
      node.payload <- Some payload;
      node.version <- node.version + 1;
      t.payload_bits <- t.payload_bits + (8 * (String.length payload - String.length old));
      `Updated
  | None ->
      if not (StringMap.is_empty node.children) then
        invalid_arg "Namespace.put: path names an interior node";
      node.payload <- Some payload;
      t.leaf_count <- t.leaf_count + 1;
      t.payload_bits <- t.payload_bits + (8 * String.length payload);
      `Inserted

let rec subtree_stats node (leaves, nodes, bits) =
  let acc =
    match node.payload with
    | Some p -> (leaves + 1, nodes + 1, bits + (8 * String.length p))
    | None -> (leaves, nodes + 1, bits)
  in
  StringMap.fold (fun _ child acc -> subtree_stats child acc) node.children acc

let remove t ~path =
  match path with
  | [] ->
      let existed = not (StringMap.is_empty t.root.children) in
      t.root.children <- StringMap.empty;
      t.root.cached_digest <- None;
      t.leaf_count <- 0;
      t.node_count <- 0;
      t.payload_bits <- 0;
      existed
  | _ ->
      let rec go node = function
        | [] -> assert false
        | [ last ] -> (
            match StringMap.find_opt last node.children with
            | None -> false
            | Some victim ->
                let leaves, nodes, bits = subtree_stats victim (0, 0, 0) in
                node.children <- StringMap.remove last node.children;
                node.cached_digest <- None;
                t.leaf_count <- t.leaf_count - leaves;
                t.node_count <- t.node_count - nodes;
                t.payload_bits <- t.payload_bits - bits;
                true)
        | seg :: rest -> (
            match StringMap.find_opt seg node.children with
            | None -> false
            | Some child ->
                let removed = go child rest in
                if removed then begin
                  node.cached_digest <- None;
                  (* prune now-empty interior nodes *)
                  if
                    child.payload = None
                    && StringMap.is_empty child.children
                  then begin
                    node.children <- StringMap.remove seg node.children;
                    t.node_count <- t.node_count - 1
                  end
                end;
                removed)
      in
      let removed = go t.root path in
      if removed then t.root.cached_digest <- None;
      removed

let find t path =
  match find_node t.root path with
  | Some { payload = Some p; _ } -> Some p
  | Some _ | None -> None

let mem t path = find_node t.root path <> None

let is_leaf t path =
  match find_node t.root path with
  | Some { payload = Some _; _ } -> true
  | Some _ | None -> false

let version t path =
  match find_node t.root path with
  | Some ({ payload = Some _; _ } as n) -> Some n.version
  | Some _ | None -> None

let set_meta t ~path meta =
  match find_node t.root path with
  | None -> invalid_arg "Namespace.set_meta: no such path"
  | Some n ->
      n.meta <- meta;
      dirty_spine t.root path;
      n.cached_digest <- None

let meta t path =
  match find_node t.root path with Some n -> n.meta | None -> []

(* netstring-style framing removes concatenation ambiguity between
   adjacent parts ("ab"+"c" vs "a"+"bc"). Parts are written straight
   into the namespace's scratch buffer, which is hashed once. *)
let rec add_decimal buf n =
  if n >= 10 then add_decimal buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_frame buf s =
  add_decimal buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let rec digest_of t node =
  match node.cached_digest with
  | Some d -> d
  | None ->
      let buf = t.frame in
      (match node.payload with
      | Some payload ->
          Buffer.clear buf;
          add_frame buf "leaf";
          add_frame buf payload;
          List.iter (add_frame buf) node.meta
      | None ->
          (* settle dirty children first: their recursion reuses [buf] *)
          StringMap.iter
            (fun _ child -> ignore (digest_of t child))
            node.children;
          Buffer.clear buf;
          add_frame buf "node";
          StringMap.iter
            (fun name child ->
              add_frame buf name;
              add_frame buf (digest_of t child))
            node.children);
      let d = Digest.string (Buffer.contents buf) in
      node.cached_digest <- Some d;
      d

let digest t path =
  match find_node t.root path with
  | Some n -> Some (digest_of t n)
  | None -> None

let root_digest t = digest_of t t.root

let children t path =
  match find_node t.root path with
  | None -> []
  | Some n ->
      StringMap.fold
        (fun name child acc ->
          let kind = if child.payload <> None then `Leaf else `Interior in
          (name, digest_of t child, kind) :: acc)
        n.children []
      |> List.rev

let leaf_count t = t.leaf_count
let node_count t = t.node_count
let payload_bits t = t.payload_bits

let iter_leaves t f =
  let rec walk path node =
    (match node.payload with
    | Some p -> f (List.rev path) p
    | None -> ());
    StringMap.iter (fun name child -> walk (name :: path) child) node.children
  in
  walk [] t.root

(* One walk down [a], carrying [b]'s node at the same path: a leaf of
   [a] matches when [b] has a node there with an equal digest. *)
let matching_leaves a b =
  let leaves = ref 0 and matching = ref 0 in
  let rec walk na nb =
    match na.payload with
    | Some _ -> (
        incr leaves;
        match nb with
        | Some nb when Digest.equal (digest_of a na) (digest_of b nb) ->
            incr matching
        | Some _ | None -> ())
    | None ->
        StringMap.iter
          (fun name child ->
            walk child
              (match nb with
              | Some nb -> StringMap.find_opt name nb.children
              | None -> None))
          na.children
  in
  walk a.root (Some b.root);
  (!leaves, !matching)

let equal a b = Digest.equal (root_digest a) (root_digest b)
