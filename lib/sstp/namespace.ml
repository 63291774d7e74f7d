type node = {
  mutable names : string array; (* children's names, in String.compare order *)
  mutable kids : node array; (* the children, aligned with [names] *)
  mutable acc : Bytes.t;
      (* interior nodes: ⟦"node"⟧ · ⟦A⟧ with A, the XOR of the children's
         [term]s, at [acc_at]; hashed as it stands. [no_bytes] until a
         first child *)
  mutable folded : Digest.t;
      (* the digest this node's [term] was made from; [unfolded] until
         its parent first folds it in *)
  mutable term : Bytes.t;
      (* MD5(⟦name⟧ · ⟦folded⟧), as XORed into its parent's A;
         [no_bytes] until then *)
  mutable payload : string option; (* Some for leaves *)
  mutable version : int;
  mutable meta : string list;
  mutable digest : Digest.t; (* valid when not [stale] *)
  mutable stale : bool;
  mutable leaves : int; (* subtree leaf count, set with [digest] *)
  mutable stamp : int; (* last [diff] call that matched this node *)
}

type t = {
  root : node;
  scratch : Buffer.t; (* a leaf's or a term's framed parts *)
  mutable diffs : int; (* [diff] calls so far: the current stamp *)
  mutable leaf_count : int;
  mutable node_count : int;
  mutable payload_bits : int;
}

let unfolded = ""
let no_bytes = Bytes.empty

let acc_prefix = "4:node16:"
let acc_at = String.length acc_prefix

(* ⟦"node"⟧ · ⟦A⟧ with A = 16 zero bytes: no child folded in. *)
let blank_acc () =
  Bytes.cat (Bytes.of_string acc_prefix) (Bytes.make 16 '\000')

(* [node]'s accumulator, laid out on first use. *)
let acc_of node =
  if node.acc == no_bytes then node.acc <- blank_acc ();
  node.acc

let fresh_node () =
  { names = [||]; kids = [||]; acc = no_bytes; folded = unfolded;
    term = no_bytes; payload = None; version = 0; meta = []; digest = "";
    stale = true; leaves = 0; stamp = 0 }

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

(* [a] with [x] at [i] and the rest shifted up. [a] holds no floats. *)
let inserted a i x =
  let n = Array.length a in
  let r = Array.make (n + 1) x in
  Array.blit a 0 r 0 i;
  Array.blit a i r (i + 1) (n - i);
  r

(* [a] without its element at [i]. *)
let without a i =
  let n = Array.length a - 1 in
  if n = 0 then [||]
  else begin
    let r = Array.sub a 0 n in
    Array.blit a (i + 1) r i (n - i);
    r
  end

(* [acc]'s A ^= [term], eight bytes at a time. *)
let xor_in acc term =
  Bytes.set_int64_ne acc acc_at
    (Int64.logxor (Bytes.get_int64_ne acc acc_at) (Bytes.get_int64_ne term 0));
  Bytes.set_int64_ne acc (acc_at + 8)
    (Int64.logxor
       (Bytes.get_int64_ne acc (acc_at + 8))
       (Bytes.get_int64_ne term 8))

(* A new child is unfolded: the next digest read of [node] folds it in. *)
let insert_child node i name child =
  node.names <- inserted node.names i name;
  node.kids <- inserted node.kids i child;
  node.stale <- true

(* The child's term, if folded in, is folded out of A. *)
let delete_child node i =
  let child = node.kids.(i) in
  if child.folded != unfolded then xor_in (acc_of node) child.term;
  node.names <- without node.names i;
  node.kids <- without node.kids i;
  node.stale <- true

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
      Bytes.fill (acc_of t.root) acc_at 16 '\000';
      t.root.stale <- true;
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

(* A child's term: MD5(⟦name⟧ · ⟦digest⟧). *)
let term_of t name digest =
  let buf = t.scratch in
  Buffer.clear buf;
  add_frame buf name;
  add_frame buf digest;
  Digest.string (Buffer.contents buf)

(* [child], named [name], moved to digest [d]: swap its old term, if
   any, for the new one in [acc]'s A. *)
let refold t acc name child d =
  if child.term == no_bytes then child.term <- Bytes.create 16
  else xor_in acc child.term;
  Bytes.unsafe_blit_string (term_of t name d) 0 child.term 0 16;
  xor_in acc child.term

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
        let acc = acc_of node in
        (* Every child is compared, not only stale ones: a child read
           through [digest], [children] or [diff] since the last fold
           is fresh, yet its term here is not. *)
        let leaves = ref 0 in
        for i = 0 to Array.length node.kids - 1 do
          let child = Array.unsafe_get node.kids i in
          let d = digest_of t child in
          if d != child.folded then begin
            if not (String.equal d child.folded) then
              refold t acc (Array.unsafe_get node.names i) child d;
            child.folded <- d
          end;
          leaves := !leaves + child.leaves
        done;
        node.digest <- Digest.bytes acc;
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

let check t =
  let exception Illegal of string in
  let rec walk path node =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          raise
            (Illegal
               (Printf.sprintf "%S: %s" (Path.to_string (List.rev path)) m)))
        fmt
    in
    let n = Array.length node.kids in
    if Array.length node.names <> n then fail "names and children misaligned";
    if node.payload = None && not node.stale then begin
      (* the fold as the children stand, redone from zero *)
      let a = blank_acc () and leaves = ref 0 in
      for i = 0 to n - 1 do
        let name = node.names.(i) and child = node.kids.(i) in
        if child.folded == unfolded || child.term == no_bytes then
          fail "child %S: not folded in" name;
        if not (child.stale || String.equal child.folded child.digest) then
          fail "child %S: folded digest is not its digest" name;
        if
          not
            (String.equal (Bytes.to_string child.term)
               (term_of t name child.folded))
        then fail "child %S: term is not the MD5 of its folded digest" name;
        xor_in a child.term;
        leaves := !leaves + child.leaves
      done;
      if not (Bytes.equal a node.acc) then fail "A is not the XOR of the terms";
      if not (String.equal node.digest (Digest.bytes a)) then
        fail "digest is not the MD5 of the accumulator";
      if node.leaves <> !leaves then
        fail "%d leaves, its children hold %d" node.leaves !leaves
    end;
    Array.iteri (fun i child -> walk (node.names.(i) :: path) child) node.kids
  in
  match walk [] t.root with () -> Ok () | exception Illegal m -> Error m
