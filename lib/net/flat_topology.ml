(* Flat struct-of-arrays network graph: the one graph substrate.

   The whole graph is a handful of flat int arrays, so a 10^6-node
   graph costs tens of megabytes and building it allocates nothing per
   element:

   - CSR adjacency: node [u]'s incident directed edges occupy the
     slice [adj_off.(u) .. adj_off.(u+1) - 1] of [adj_node] (the
     neighbour) and [adj_cable] (the undirected cable it rides),
     sorted ascending by neighbour id (ties by cable id). That order
     is a contract: protocols that pick "the k-th neighbour of u"
     observe the same peer whether they go through [neighbor] or read
     the arrays {!adjacency} exposes.
   - One int pair per undirected cable ([cable_a]/[cable_b]).
   - Fault state as bitsets (one bit per node / cable), plus an exact
     count of what is down, so "is anything down?" is one compare.
   - Routing is lazy and compressed: a single dist/parent/queue
     scratch (3 ints per node) allocated on first use and reused
     across sources, instead of per-source cached arrays. Routing is
     computed over the full graph and is not fault-adaptive.

   Cost: 5 int arrays totalling [4*cables + nodes + 1] words plus two
   bitsets — about 40 bytes per node on a sparse graph. Builders
   allocate O(N + E) transient arrays (two stable counting-sort
   passes) and nothing per element.

   Determinism: the random builder draws a geometric skip per accepted
   pair (the G(n,p) pair loop would be O(N^2) draws), so its cable
   set depends only on the seed, never on iteration order. *)

module Rng = Softstate_util.Rng

type t = {
  kind : string;
  nodes : int;
  cables : int;
  adj_off : int array;
  adj_node : int array;
  adj_cable : int array;
  cable_a : int array;
  cable_b : int array;
  node_up : Bytes.t;
  cable_up : Bytes.t;
  mutable transitions : int;
  mutable down : int;  (* nodes plus cables whose bit is clear *)
  (* lazy single-source routing scratch, reused across sources *)
  mutable route_src : int;
  mutable route_dist : int array;
  mutable route_parent : int array;
  mutable route_queue : int array;
}

(* ------------------------------------------------------------------ *)
(* Bitsets *)

let bits_make n = Bytes.make ((n + 7) / 8) '\xff' (* everything starts up *)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i v =
  let byte = Char.code (Bytes.get b (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  Bytes.set b (i lsr 3)
    (Char.chr (if v then byte lor mask else byte land lnot mask))

(* ------------------------------------------------------------------ *)
(* Construction *)

(* CSR from a cable list in O(N + E): directed edges enumerated in
   cable order are stably counting-sorted by destination, then stably
   by source. Stability makes each node's slice ascend by neighbour
   (ties by cable), giving the deterministic k-th-neighbour order. *)
let build ~kind ~nodes cable_a cable_b =
  let cables = Array.length cable_a in
  for c = 0 to cables - 1 do
    let a = cable_a.(c) and b = cable_b.(c) in
    if a < 0 || a >= nodes || b < 0 || b >= nodes then
      invalid_arg "Flat_topology: cable endpoint out of range";
    if a = b then invalid_arg "Flat_topology: self-loop cable"
  done;
  let m = 2 * cables in
  (* pass 1: directed edges sorted by destination *)
  let count = Array.make (nodes + 1) 0 in
  for c = 0 to cables - 1 do
    count.(cable_a.(c)) <- count.(cable_a.(c)) + 1;
    count.(cable_b.(c)) <- count.(cable_b.(c)) + 1
  done;
  let off = Array.make (nodes + 1) 0 in
  for u = 0 to nodes - 1 do
    off.(u + 1) <- off.(u) + count.(u)
  done;
  let pos = Array.copy off in
  let t1_src = Array.make (max m 1) 0 in
  let t1_cab = Array.make (max m 1) 0 in
  for c = 0 to cables - 1 do
    let a = cable_a.(c) and b = cable_b.(c) in
    (* edge a->b files under destination b, and b->a under a *)
    let i = pos.(b) in
    pos.(b) <- i + 1;
    t1_src.(i) <- a;
    t1_cab.(i) <- c;
    let j = pos.(a) in
    pos.(a) <- j + 1;
    t1_src.(j) <- b;
    t1_cab.(j) <- c
  done;
  (* pass 2: stable sort by source; [off] doubles as the CSR row
     starts since in/out degrees coincide on an undirected graph *)
  let adj_node = Array.make (max m 1) 0 in
  let adj_cable = Array.make (max m 1) 0 in
  let fill = Array.copy off in
  for v = 0 to nodes - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      let u = t1_src.(i) in
      let s = fill.(u) in
      fill.(u) <- s + 1;
      adj_node.(s) <- v;
      adj_cable.(s) <- t1_cab.(i)
    done
  done;
  { kind;
    nodes;
    cables;
    adj_off = off;
    adj_node;
    adj_cable;
    cable_a;
    cable_b;
    node_up = bits_make nodes;
    cable_up = bits_make (max cables 1);
    transitions = 0;
    down = 0;
    route_src = -1;
    route_dist = [||];
    route_parent = [||];
    route_queue = [||] }

let of_cables ~nodes cables =
  if nodes < 1 then invalid_arg "Flat_topology.of_cables: need >= 1 node";
  let n = Array.length cables in
  let a = Array.make n 0 and b = Array.make n 0 in
  Array.iteri
    (fun i (x, y) ->
      a.(i) <- x;
      b.(i) <- y)
    cables;
  build ~kind:"cables" ~nodes a b

let star ~leaves () =
  if leaves < 1 then invalid_arg "Flat_topology.star: need >= 1 leaf";
  let a = Array.make leaves 0 in
  let b = Array.init leaves (fun i -> i + 1) in
  build ~kind:(Printf.sprintf "star:%d" leaves) ~nodes:(leaves + 1) a b

let chain ~hops () =
  if hops < 1 then invalid_arg "Flat_topology.chain: need >= 1 hop";
  let a = Array.init hops (fun i -> i) in
  let b = Array.init hops (fun i -> i + 1) in
  build ~kind:(Printf.sprintf "chain:%d" hops) ~nodes:(hops + 1) a b

let kary_tree ~arity ~depth () =
  if arity < 1 then invalid_arg "Flat_topology.kary_tree: arity >= 1";
  if depth < 1 then invalid_arg "Flat_topology.kary_tree: depth >= 1";
  let nodes = ref 1 and layer = ref 1 in
  for _ = 1 to depth do
    layer := !layer * arity;
    nodes := !nodes + !layer
  done;
  let n = !nodes in
  (* node i's children are arity*i + 1 .. arity*i + arity, level order
     from root 0 *)
  let a = Array.init (n - 1) (fun i -> i / arity) in
  let b = Array.init (n - 1) (fun i -> i + 1) in
  build ~kind:(Printf.sprintf "tree:%d:%d" arity depth) ~nodes:n a b

let random ~rng ~nodes ~edge_prob () =
  if nodes < 2 then invalid_arg "Flat_topology.random: need >= 2 nodes";
  if Float.is_nan edge_prob || edge_prob < 0.0 || edge_prob > 1.0 then
    invalid_arg "Flat_topology.random: edge_prob outside [0, 1]";
  (* growable extra-cable store: two parallel int arrays, doubling *)
  let cap = ref 16 and len = ref 0 in
  let ea = ref (Array.make !cap 0) and eb = ref (Array.make !cap 0) in
  let push i j =
    if !len = !cap then begin
      let cap' = 2 * !cap in
      let ea' = Array.make cap' 0 and eb' = Array.make cap' 0 in
      Array.blit !ea 0 ea' 0 !len;
      Array.blit !eb 0 eb' 0 !len;
      ea := ea';
      eb := eb';
      cap := cap'
    end;
    !ea.(!len) <- i;
    !eb.(!len) <- j;
    incr len
  in
  (* the extra-pair space: i < j - 1 (chain pairs are already
     cabled), row i holding pairs (i, i+2 .. nodes-1). One geometric
     skip per accepted pair replaces an O(N^2) per-pair Bernoulli
     loop. *)
  if edge_prob > 0.0 && nodes > 2 then
    if edge_prob >= 1.0 then
      for i = 0 to nodes - 3 do
        for j = i + 2 to nodes - 1 do
          push i j
        done
      done
    else begin
      let ln_q = log (1.0 -. edge_prob) in
      let i = ref 0 and off = ref (-1) in
      let alive = ref true in
      while !alive do
        let s = log (1.0 -. Rng.float rng) /. ln_q in
        if s >= 1e18 then alive := false
        else begin
          off := !off + 1 + int_of_float s;
          let rolling = ref true in
          while !rolling do
            if !i > nodes - 3 then begin
              alive := false;
              rolling := false
            end
            else begin
              let row_len = nodes - !i - 2 in
              if !off >= row_len then begin
                off := !off - row_len;
                incr i
              end
              else rolling := false
            end
          done;
          if !alive then push !i (!i + 2 + !off)
        end
      done
    end;
  let chain_cables = nodes - 1 in
  let total = chain_cables + !len in
  let a = Array.make total 0 and b = Array.make total 0 in
  for k = 0 to chain_cables - 1 do
    a.(k) <- k;
    b.(k) <- k + 1
  done;
  Array.blit !ea 0 a chain_cables !len;
  Array.blit !eb 0 b chain_cables !len;
  build ~kind:(Printf.sprintf "random:%d:%g" nodes edge_prob) ~nodes a b

(* ------------------------------------------------------------------ *)
(* Structure *)

let kind t = t.kind
let node_count t = t.nodes
let cable_count t = t.cables

let check_node t u what =
  if u < 0 || u >= t.nodes then
    invalid_arg (Printf.sprintf "Flat_topology.%s: node %d of %d" what u t.nodes)

let check_cable t c what =
  if c < 0 || c >= t.cables then
    invalid_arg
      (Printf.sprintf "Flat_topology.%s: cable %d of %d" what c t.cables)

let degree t u =
  check_node t u "degree";
  t.adj_off.(u + 1) - t.adj_off.(u)

let neighbor t u k =
  check_node t u "neighbor";
  let off = t.adj_off.(u) in
  if k < 0 || off + k >= t.adj_off.(u + 1) then
    invalid_arg "Flat_topology.neighbor: index out of degree";
  t.adj_node.(off + k)

let neighbor_cable t u k =
  check_node t u "neighbor_cable";
  let off = t.adj_off.(u) in
  if k < 0 || off + k >= t.adj_off.(u + 1) then
    invalid_arg "Flat_topology.neighbor_cable: index out of degree";
  t.adj_cable.(off + k)

type adjacency = { off : int array; node : int array; cable : int array }

let adjacency t =
  { off = t.adj_off; node = t.adj_node; cable = t.adj_cable }

let cable_endpoints t c =
  check_cable t c "cable_endpoints";
  (t.cable_a.(c), t.cable_b.(c))

let footprint_words t =
  let arr = Array.length in
  let bytes b = (Bytes.length b / 8) + 2 in
  arr t.adj_off + arr t.adj_node + arr t.adj_cable + arr t.cable_a
  + arr t.cable_b + arr t.route_dist + arr t.route_parent
  + arr t.route_queue + bytes t.node_up + bytes t.cable_up + 24

(* ------------------------------------------------------------------ *)
(* Fault state *)

let is_node_up t u =
  check_node t u "is_node_up";
  bit_get t.node_up u

let is_cable_up t c =
  check_cable t c "is_cable_up";
  bit_get t.cable_up c

let flip bits i up t =
  if bit_get bits i = up then false
  else begin
    bit_set bits i up;
    t.transitions <- t.transitions + 1;
    t.down <- (if up then t.down - 1 else t.down + 1);
    true
  end

let set_cable t c ~up =
  check_cable t c "set_cable";
  flip t.cable_up c up t

let crash_node t u =
  check_node t u "crash_node";
  flip t.node_up u false t

let restart_node t u =
  check_node t u "restart_node";
  flip t.node_up u true t

let all_up t = t.down = 0
let fault_transitions t = t.transitions

(* ------------------------------------------------------------------ *)
(* Routing: lazy BFS into a shared scratch (static, fault-blind) *)

let ensure_route t src =
  check_node t src "route";
  if t.route_src <> src then begin
    if Array.length t.route_dist = 0 then begin
      t.route_dist <- Array.make t.nodes (-1);
      t.route_parent <- Array.make t.nodes (-1);
      t.route_queue <- Array.make t.nodes 0
    end;
    Array.fill t.route_dist 0 t.nodes (-1);
    Array.fill t.route_parent 0 t.nodes (-1);
    t.route_dist.(src) <- 0;
    t.route_queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = t.route_queue.(!head) in
      incr head;
      let du = t.route_dist.(u) in
      for k = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
        let v = t.adj_node.(k) in
        if t.route_dist.(v) < 0 then begin
          t.route_dist.(v) <- du + 1;
          t.route_parent.(v) <- u;
          t.route_queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    t.route_src <- src
  end

let dist t ~src ~dst =
  ensure_route t src;
  check_node t dst "dist";
  t.route_dist.(dst)

let route_parent t ~src n =
  ensure_route t src;
  check_node t n "route_parent";
  t.route_parent.(n)

let farthest t ~src =
  ensure_route t src;
  let best = ref src and best_d = ref 0 in
  for u = 0 to t.nodes - 1 do
    let d = t.route_dist.(u) in
    if d > !best_d then begin
      best := u;
      best_d := d
    end
  done;
  !best
