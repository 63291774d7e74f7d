type node = {
  mutable names : string array; (* children's names, in String.compare order *)
  mutable kids : node array; (* the children, aligned with [names] *)
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
   per child in name order, where [kids.(i)]'s 16 digest bytes sit at
   [offsets.(i)] of [bytes]. It is laid out again only when the set of
   children changes; a digest recompute re-blits every child's current
   digest into it and hashes it once. *)
and frame = { bytes : Bytes.t; offsets : int array }

let unframed = { bytes = Bytes.empty; offsets = [||] }

type t = {
  root : node;
  scratch : Buffer.t; (* a leaf's framed parts, or a frame being laid out *)
  mutable diffs : int; (* [diff] calls so far: the current stamp *)
  mutable leaf_count : int;
  mutable node_count : int;
  mutable payload_bits : int;
}

let fresh_node () =
  { names = [||]; kids = [||]; payload = None; version = 0; meta = [];
    digest = ""; stale = true; leaves = 0; frame = unframed; stamp = 0 }

let create () =
  { root = fresh_node (); scratch = Buffer.create 256; diffs = 0;
    leaf_count = 0; node_count = 0; payload_bits = 0 }

(* Where [find_node] lands for an absent path; never mutated. *)
let nowhere = fresh_node ()

(* The index of [name] in the sorted [names] within [lo, hi), or
   [-1 - i] with [i] where it would be inserted. *)
let rec bsearch names name lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare name (Array.unsafe_get names mid) in
    if c = 0 then mid
    else if c < 0 then bsearch names name lo mid
    else bsearch names name (mid + 1) hi

let index names name = bsearch names name 0 (Array.length names)

(* [index], trying [cursor] first: the position just past the previous
   lookup, where the next name of a name-ordered list usually is. *)
let index_from names name cursor =
  if
    cursor < Array.length names
    && String.equal (Array.unsafe_get names cursor) name
  then cursor
  else index names name

let rec find_node node = function
  | [] -> node
  | seg :: rest ->
      let i = index node.names seg in
      if i < 0 then nowhere else find_node (Array.unsafe_get node.kids i) rest

(* A child was added or removed under [node]. *)
let reshape node =
  node.stale <- true;
  node.frame <- unframed

let inserted a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let without a i =
  Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let insert_child node i name child =
  node.names <- inserted node.names i name;
  node.kids <- inserted node.kids i child;
  reshape node

let delete_child node i =
  node.names <- without node.names i;
  node.kids <- without node.kids i;
  reshape node

(* Walk to [path], invalidating digest caches along the spine (the
   caller is about to mutate the endpoint), creating interior nodes as
   needed. A leaf on the spine is found before anything is created, so
   a rejected put leaves no debris. *)
let rec reach_dirty t node = function
  | [] -> node
  | seg :: rest ->
      if node.payload <> None then
        invalid_arg "Namespace.put: path passes through a leaf";
      node.stale <- true;
      let i = index node.names seg in
      let child =
        if i >= 0 then Array.unsafe_get node.kids i
        else begin
          let c = fresh_node () in
          insert_child node (-1 - i) seg c;
          t.node_count <- t.node_count + 1;
          c
        end
      in
      reach_dirty t child rest

(* Invalidate caches along an existing spine without creating nodes. *)
let rec dirty_spine node = function
  | [] -> ()
  | seg :: rest ->
      node.stale <- true;
      let i = index node.names seg in
      if i >= 0 then dirty_spine (Array.unsafe_get node.kids i) rest

(* The leaf a put at [path] writes, its spine dirtied. *)
let reach_leaf t path =
  if path = [] then invalid_arg "Namespace.put: cannot put at the root";
  let node = reach_dirty t t.root path in
  if node.payload = None && Array.length node.kids > 0 then
    invalid_arg "Namespace.put: path names an interior node";
  node.stale <- true;
  node

let set_payload t node payload =
  (match node.payload with
  | Some old ->
      node.version <- node.version + 1;
      t.payload_bits <-
        t.payload_bits + (8 * (String.length payload - String.length old))
  | None ->
      t.leaf_count <- t.leaf_count + 1;
      t.payload_bits <- t.payload_bits + (8 * String.length payload));
  node.payload <- Some payload

let put t ~path ~payload =
  let node = reach_leaf t path in
  let inserted = node.payload = None in
  set_payload t node payload;
  if inserted then `Inserted else `Updated

let store t ~path ~payload ~meta =
  let node = reach_leaf t path in
  let unchanged =
    (match node.payload with
    | Some old -> String.equal old payload
    | None -> false)
    && List.equal String.equal node.meta meta
  in
  set_payload t node payload;
  node.meta <- meta;
  not unchanged

let rec subtree_stats node (leaves, nodes, bits) =
  let acc =
    match node.payload with
    | Some p -> (leaves + 1, nodes + 1, bits + (8 * String.length p))
    | None -> (leaves, nodes + 1, bits)
  in
  Array.fold_left (fun acc child -> subtree_stats child acc) acc node.kids

let remove t ~path =
  match path with
  | [] ->
      let existed = Array.length t.root.kids > 0 in
      t.root.names <- [||];
      t.root.kids <- [||];
      reshape t.root;
      t.leaf_count <- 0;
      t.node_count <- 0;
      t.payload_bits <- 0;
      existed
  | seg :: rest ->
      let rec go node seg rest =
        let i = index node.names seg in
        if i < 0 then false
        else
          match rest with
          | [] ->
              let leaves, nodes, bits =
                subtree_stats (Array.unsafe_get node.kids i) (0, 0, 0)
              in
              delete_child node i;
              t.leaf_count <- t.leaf_count - leaves;
              t.node_count <- t.node_count - nodes;
              t.payload_bits <- t.payload_bits - bits;
              true
          | next :: rest ->
              let child = Array.unsafe_get node.kids i in
              let removed = go child next rest in
              if removed then begin
                node.stale <- true;
                (* prune now-empty interior nodes *)
                if child.payload = None && Array.length child.kids = 0 then begin
                  delete_child node i;
                  t.node_count <- t.node_count - 1
                end
              end;
              removed
      in
      go t.root seg rest

let find t path =
  match find_node t.root path with
  | { payload = Some p; _ } -> Some p
  | _ -> None

let mem t path = find_node t.root path != nowhere

let is_leaf t path = (find_node t.root path).payload <> None

let leaf t path =
  match find_node t.root path with
  | { payload = Some p; version; meta; _ } -> Some (p, version, meta)
  | _ -> None

let set_meta t ~path meta =
  let n = find_node t.root path in
  if n == nowhere then invalid_arg "Namespace.set_meta: no such path";
  n.meta <- meta;
  dirty_spine t.root path;
  n.stale <- true

let meta t path = (find_node t.root path).meta

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
  let offsets =
    Array.map
      (fun name ->
        add_frame buf name;
        add_frame buf no_digest;
        Buffer.length buf - 16)
      node.names
  in
  let frame = { bytes = Buffer.to_bytes buf; offsets } in
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
        for i = 0 to Array.length node.kids - 1 do
          let child = Array.unsafe_get node.kids i in
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
  let n = find_node t.root path in
  if n == nowhere then None else Some (digest_of t n)

let root_digest t = digest_of t t.root

let children t path =
  let n = find_node t.root path in
  let acc = ref [] in
  for i = Array.length n.kids - 1 downto 0 do
    let child = Array.unsafe_get n.kids i in
    acc :=
      { Wire.name = Array.unsafe_get n.names i; digest = digest_of t child;
        kind = (if child.payload <> None then Wire.Leaf else Wire.Interior);
        meta = child.meta }
      :: !acc
  done;
  !acc

(* The remote children of [n] that it lacks or whose digest differs, in
   their order; stamps every local child matched. Each lookup starts
   from where the previous one ended. *)
let rec diverged t n stamp cursor = function
  | [] -> []
  | (c : Wire.child) :: rest ->
      let i = index_from n.names c.Wire.name cursor in
      if i < 0 then c :: diverged t n stamp (-1 - i) rest
      else begin
        let local = Array.unsafe_get n.kids i in
        local.stamp <- stamp;
        let same = Digest.equal (digest_of t local) c.Wire.digest in
        let rest = diverged t n stamp (i + 1) rest in
        if same then rest else c :: rest
      end

(* The names of [n]'s children below index [i] not stamped [stamp],
   in name order, ahead of [acc]. *)
let rec unmatched n stamp i acc =
  if i < 0 then acc
  else
    unmatched n stamp (i - 1)
      (if (Array.unsafe_get n.kids i).stamp = stamp then acc
       else Array.unsafe_get n.names i :: acc)

let diff t path (remote : Wire.child list) =
  let n = find_node t.root path in
  if n == nowhere then (remote, [])
  else begin
    t.diffs <- t.diffs + 1;
    let diverged = diverged t n t.diffs 0 remote in
    (diverged, unmatched n t.diffs (Array.length n.kids - 1) [])
  end

let leaf_count t = t.leaf_count
let node_count t = t.node_count
let payload_bits t = t.payload_bits

let iter_leaves t f =
  let rec walk path node =
    (match node.payload with
    | Some p -> f (List.rev path) p
    | None -> ());
    Array.iteri (fun i child -> walk (node.names.(i) :: path) child) node.kids
  in
  walk [] t.root

(* Leaves under [node], read from the cache when it is fresh. *)
let rec leaves_below node =
  if node.payload <> None then 1
  else if not node.stale then node.leaves
  else Array.fold_left (fun acc child -> acc + leaves_below child) 0 node.kids

(* One merge walk down both trees, carrying [b]'s node at [a]'s path.
   Digests are compared only at leaves and at interior nodes fresh on
   both sides, where an equal digest counts the whole subtree; a stale
   interior node is descended rather than rehashed. A leaf never
   matches an interior node: their frames differ in the first part. *)
let matching_leaves a b =
  let leaves = ref 0 and matching = ref 0 in
  let rec walk na nb =
    match na.payload with
    | Some _ ->
        incr leaves;
        if
          nb.payload <> None && Digest.equal (digest_of a na) (digest_of b nb)
        then incr matching
    | None ->
        if nb.payload <> None then leaves := !leaves + leaves_below na
        else if
          (not na.stale) && (not nb.stale) && Digest.equal na.digest nb.digest
        then begin
          leaves := !leaves + na.leaves;
          matching := !matching + na.leaves
        end
        else begin
          let cursor = ref 0 in
          for i = 0 to Array.length na.kids - 1 do
            let kid = Array.unsafe_get na.kids i in
            let j = index_from nb.names (Array.unsafe_get na.names i) !cursor in
            if j < 0 then begin
              cursor := -1 - j;
              leaves := !leaves + leaves_below kid
            end
            else begin
              cursor := j + 1;
              walk kid (Array.unsafe_get nb.kids j)
            end
          done
        end
  in
  walk a.root b.root;
  (!leaves, !matching)

let equal a b = Digest.equal (root_digest a) (root_digest b)
