module StringMap = Map.Make (String)

type node = {
  mutable children : node StringMap.t;
  mutable payload : string option; (* Some for leaves *)
  mutable version : int;
  mutable meta : string list;
  mutable digest : Digest.t; (* valid when not [stale] *)
  mutable stale : bool;
  mutable leaves : int; (* subtree leaf count, set with [digest] *)
  mutable frame : frame; (* interior nodes; [unframed] until hashed *)
  mutable stamp : int; (* last [diff] call that matched this node *)
}

(* An interior node's digest input: ⟦"node"⟧ then ⟦name⟧ · ⟦digest⟧
   per child in name order, where [slots.(i)]'s 16 digest bytes sit at
   [offsets.(i)] of [bytes]. It is laid out again only when the set of
   children changes; a digest recompute re-blits every child's current
   digest into it and hashes it once. *)
and frame = { bytes : Bytes.t; slots : node array; offsets : int array }

let unframed = { bytes = Bytes.empty; slots = [||]; offsets = [||] }

type t = {
  root : node;
  scratch : Buffer.t; (* a leaf's framed parts, or a frame being laid out *)
  mutable diffs : int; (* [diff] calls so far: the current stamp *)
  mutable leaf_count : int;
  mutable node_count : int;
  mutable payload_bits : int;
}

let fresh_node () =
  { children = StringMap.empty; payload = None; version = 0; meta = [];
    digest = ""; stale = true; leaves = 0; frame = unframed; stamp = 0 }

let create () =
  { root = fresh_node (); scratch = Buffer.create 256; diffs = 0;
    leaf_count = 0; node_count = 0; payload_bits = 0 }

let rec find_node node = function
  | [] -> Some node
  | seg :: rest -> (
      match StringMap.find_opt seg node.children with
      | None -> None
      | Some child -> find_node child rest)

(* A child was added or removed under [node]. *)
let reshape node =
  node.stale <- true;
  node.frame <- unframed

(* Walk to [path], invalidating digest caches along the spine (the
   caller is about to mutate the endpoint), creating interior nodes as
   needed. *)
let rec reach_dirty t node = function
  | [] -> node
  | seg :: rest ->
      node.stale <- true;
      let child =
        match StringMap.find_opt seg node.children with
        | Some c -> c
        | None ->
            let c = fresh_node () in
            node.children <- StringMap.add seg c node.children;
            node.frame <- unframed;
            t.node_count <- t.node_count + 1;
            c
      in
      reach_dirty t child rest

(* Invalidate caches along an existing spine without creating nodes. *)
let rec dirty_spine node = function
  | [] -> ()
  | seg :: rest -> (
      node.stale <- true;
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
  node.stale <- true;
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
      reshape t.root;
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
                reshape node;
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
                  node.stale <- true;
                  (* prune now-empty interior nodes *)
                  if
                    child.payload = None
                    && StringMap.is_empty child.children
                  then begin
                    node.children <- StringMap.remove seg node.children;
                    reshape node;
                    t.node_count <- t.node_count - 1
                  end
                end;
                removed)
      in
      go t.root path

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
      n.stale <- true

let meta t path =
  match find_node t.root path with Some n -> n.meta | None -> []

(* netstring-style framing removes concatenation ambiguity between
   adjacent parts ("ab"+"c" vs "a"+"bc"). Parts are written into the
   namespace's scratch buffer. *)
let rec add_decimal buf n =
  if n >= 10 then add_decimal buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_frame buf s =
  add_decimal buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let no_digest = String.make 16 '\000'

(* Lay out a frame for [node]'s current children with placeholder
   digests: the recompute that follows blits every one of them. *)
let reframe t node =
  let buf = t.scratch in
  Buffer.clear buf;
  add_frame buf "node";
  let named = Array.of_seq (StringMap.to_seq node.children) in
  let offsets = Array.make (Array.length named) 0 in
  Array.iteri
    (fun i (name, _) ->
      add_frame buf name;
      add_frame buf no_digest;
      offsets.(i) <- Buffer.length buf - 16)
    named;
  let frame =
    { bytes = Buffer.to_bytes buf; slots = Array.map snd named; offsets }
  in
  node.frame <- frame;
  frame

let rec digest_of t node =
  if node.stale then begin
    (match node.payload with
    | Some payload ->
        let buf = t.scratch in
        Buffer.clear buf;
        add_frame buf "leaf";
        add_frame buf payload;
        List.iter (add_frame buf) node.meta;
        node.digest <- Digest.string (Buffer.contents buf);
        node.leaves <- 1
    | None ->
        let f =
          if node.frame == unframed then reframe t node else node.frame
        in
        (* Every child is re-blitted, not only stale ones: a child read
           through [digest] or [diff] since this frame was last hashed
           is already fresh, yet its bytes here are not. *)
        let leaves = ref 0 in
        for i = 0 to Array.length f.slots - 1 do
          let child = Array.unsafe_get f.slots i in
          Bytes.blit_string (digest_of t child) 0 f.bytes
            (Array.unsafe_get f.offsets i) 16;
          leaves := !leaves + child.leaves
        done;
        node.digest <- Digest.bytes f.bytes;
        node.leaves <- !leaves);
    node.stale <- false
  end;
  node.digest

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
          { Wire.name; digest = digest_of t child;
            kind = (if child.payload <> None then Wire.Leaf else Wire.Interior);
            meta = child.meta }
          :: acc)
        n.children []
      |> List.rev

let diff t path (remote : Wire.child list) =
  match find_node t.root path with
  | None -> (remote, [])
  | Some n ->
      t.diffs <- t.diffs + 1;
      let stamp = t.diffs in
      let diverged =
        List.filter
          (fun (c : Wire.child) ->
            match StringMap.find_opt c.Wire.name n.children with
            | Some local ->
                local.stamp <- stamp;
                not (Digest.equal (digest_of t local) c.Wire.digest)
            | None -> true)
          remote
      in
      let withdrawn =
        StringMap.fold
          (fun name child acc -> if child.stamp = stamp then acc else name :: acc)
          n.children []
      in
      (diverged, List.rev withdrawn)

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

(* One walk down [a], carrying [b]'s node at the same path. Equal
   digests mean equal subtrees, so every leaf below matches and the
   walk stops there; only mismatching interior nodes are descended. *)
let matching_leaves a b =
  let leaves = ref 0 and matching = ref 0 in
  let rec walk na nb =
    let da = digest_of a na in
    match nb with
    | None -> leaves := !leaves + na.leaves
    | Some nb when Digest.equal da (digest_of b nb) ->
        leaves := !leaves + na.leaves;
        matching := !matching + na.leaves
    | Some nb -> (
        match na.payload with
        | Some _ -> incr leaves
        | None ->
            StringMap.iter
              (fun name child ->
                walk child (StringMap.find_opt name nb.children))
              na.children)
  in
  walk a.root (Some b.root);
  (!leaves, !matching)

let equal a b = Digest.equal (root_digest a) (root_digest b)
