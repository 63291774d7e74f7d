module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Ring = Softstate_util.Ring
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

(* Graph, routes and fault bits all live in the flat core [g]; this
   record adds only what packet-level overlays need. Every directed
   edge carries the topology-wide rate and loss, so an edge is
   just its id [eid = 2 * cable + dir]: direction 0 runs from the
   cable's first endpoint to its second, direction 1 back. *)
type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t option;
  trace : Trace.t;
  traced : bool;
  g : Flat_topology.t;
  rate_bps : float;
  loss : unit -> Loss.t;
  (* substrate accounting over every overlay edge; see [substrate] *)
  mutable bh_inject : int;   (* packets destroyed entering a down element *)
  mutable bh_deliver : int;  (* packets destroyed leaving a down element *)
  mutable injected : int;    (* packets offered to an edge *)
  mutable overflowed : int;
  mutable queued : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

type substrate = {
  s_injected : int;
  s_blackholed_inject : int;
  s_blackholed_deliver : int;
  s_overflowed : int;
  s_queued : int;
  s_sent : int;
  s_delivered : int;
  s_dropped : int;
}

let engine t = t.engine
let node_count t = Flat_topology.node_count t.g
let cable_count t = Flat_topology.cable_count t.g
let edge_count t = 2 * cable_count t

let check_node t id name =
  if id < 0 || id >= node_count t then
    invalid_arg (Printf.sprintf "Topology.%s: no node %d" name id)

let cable_endpoints t id = Flat_topology.cable_endpoints t.g id

(* The builder tag without its parameters: ["tree"] for ["tree:2:3"]. *)
let kind t =
  let k = Flat_topology.kind t.g in
  match String.index_opt k ':' with Some i -> String.sub k 0 i | None -> k

(* Endpoints of directed edge [eid]. *)
let edge_ends t eid =
  let a, b = Flat_topology.cable_endpoints t.g (eid lsr 1) in
  if eid land 1 = 0 then (a, b) else (b, a)

let leaves t =
  let acc = ref [] in
  for id = node_count t - 1 downto 0 do
    if Flat_topology.degree t.g id = 1 then acc := id :: !acc
  done;
  !acc

(* Every packet offered to an overlay edge is, at any instant, in
   exactly one of the [substrate] buckets (blackholed at the gate,
   rejected by the bounded queue, waiting in the queue, on the edge
   server, destroyed by the edge loss process, or past its loss draw),
   so [s_injected = s_blackholed_inject + s_overflowed + s_queued + s_sent]
   holds exactly — the per-edge packet-conservation invariant the
   checker's oracles verify. *)
let substrate t =
  { s_injected = t.injected;
    s_blackholed_inject = t.bh_inject;
    s_blackholed_deliver = t.bh_deliver;
    s_overflowed = t.overflowed;
    s_queued = t.queued;
    s_sent = t.sent;
    s_delivered = t.delivered;
    s_dropped = t.dropped }

let count_down n up =
  let down = ref 0 in
  for i = 0 to n - 1 do
    if not (up i) then incr down
  done;
  !down

(* ------------------------------------------------------------------ *)
(* Construction *)

(* The source tag of trace events and the prefix of probes. *)
let label = "topo"

let wrap ~engine ~rng ?obs ~rate_bps ?(loss = fun () -> Loss.never) g =
  if rate_bps <= 0.0 then invalid_arg "Topology: rate must be positive";
  let t =
    { engine; rng; obs; trace = Obs.trace_of obs;
      traced = Trace.enabled (Obs.trace_of obs); g; rate_bps; loss;
      bh_inject = 0; bh_deliver = 0; injected = 0; overflowed = 0;
      queued = 0; sent = 0; delivered = 0; dropped = 0 }
  in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m (label ^ ".fault_transitions") (fun ~now:_ ->
          float_of_int (Flat_topology.fault_transitions g));
      Metrics.probe m (label ^ ".fault_drops") (fun ~now:_ ->
          float_of_int (t.bh_inject + t.bh_deliver));
      Metrics.probe m (label ^ ".cables_down") (fun ~now:_ ->
          float_of_int
            (count_down (Flat_topology.cable_count g) (Flat_topology.is_cable_up g)));
      Metrics.probe m (label ^ ".nodes_down") (fun ~now:_ ->
          float_of_int
            (count_down (Flat_topology.node_count g) (Flat_topology.is_node_up g)));
      (* substrate accounting, for the conservation oracles *)
      let sub name field =
        Metrics.probe m (label ^ "." ^ name) (fun ~now:_ ->
            float_of_int (field (substrate t)))
      in
      sub "injected" (fun s -> s.s_injected);
      sub "blackholed_inject" (fun s -> s.s_blackholed_inject);
      sub "blackholed_deliver" (fun s -> s.s_blackholed_deliver);
      sub "overflowed" (fun s -> s.s_overflowed);
      sub "queued" (fun s -> s.s_queued);
      sub "edge_sent" (fun s -> s.s_sent);
      sub "edge_delivered" (fun s -> s.s_delivered);
      sub "edge_dropped" (fun s -> s.s_dropped)
  | None -> ());
  t

let star ~engine ~rng ?obs ?loss ~rate_bps ~leaves () =
  wrap ~engine ~rng ?obs ~rate_bps ?loss (Flat_topology.star ~leaves ())

let chain ~engine ~rng ?obs ?loss ~rate_bps ~hops () =
  wrap ~engine ~rng ?obs ~rate_bps ?loss (Flat_topology.chain ~hops ())

let kary_tree ~engine ~rng ?obs ?loss ~rate_bps ~arity ~depth () =
  wrap ~engine ~rng ?obs ~rate_bps ?loss
    (Flat_topology.kary_tree ~arity ~depth ())

let random_graph ~engine ~rng ?obs ?loss ~rate_bps ~nodes ~edge_prob () =
  wrap ~engine ~rng ?obs ~rate_bps ?loss
    (Flat_topology.random ~rng ~nodes ~edge_prob ())

(* ------------------------------------------------------------------ *)
(* Routing: the flat core's BFS from one source at a time. Setup-time
   only — overlays resolve their paths and trees once, at creation. *)

(* The edge from [v]'s BFS parent toward [src] down to [v], found by
   scanning [v]'s CSR slice for the parent. *)
let parent_edge t ~src v =
  let p = Flat_topology.route_parent t.g ~src v in
  let rec scan k =
    if Flat_topology.neighbor t.g v k = p then begin
      let c = Flat_topology.neighbor_cable t.g v k in
      let a, _ = Flat_topology.cable_endpoints t.g c in
      (2 * c) + if a = p then 0 else 1
    end
    else scan (k + 1)
  in
  (p, scan 0)

let path t ~src ~dst =
  check_node t src "path";
  check_node t dst "path";
  if Flat_topology.dist t.g ~src ~dst < 0 then
    invalid_arg (Printf.sprintf "Topology.path: %d unreachable from %d" dst src);
  let rec walk acc v =
    if v = src then acc
    else
      let p, eid = parent_edge t ~src v in
      walk (eid :: acc) p
  in
  walk [] dst

let farthest t ~src = Flat_topology.farthest t.g ~src

let tree_children t ~root =
  let n = node_count t in
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if Flat_topology.route_parent t.g ~src:root v >= 0 then begin
      let p, eid = parent_edge t ~src:root v in
      children.(p) <- eid :: children.(p)
    end
  done;
  children

(* ------------------------------------------------------------------ *)
(* Fault state: the flat core's bits, plus trace emission *)

let emit_fault t kind ~detail ~value =
  if t.traced then
    Trace.emit t.trace
      (Trace.event ~time:(Engine.now t.engine) ~src:label ~detail ~value
         kind)

let set_cable t cid ~up =
  let changed = Flat_topology.set_cable t.g cid ~up in
  if changed then begin
    let a, b = Flat_topology.cable_endpoints t.g cid in
    emit_fault t
      (if up then Trace.Link_up else Trace.Link_down)
      ~detail:(Printf.sprintf "%d-%d" a b)
      ~value:(float_of_int cid)
  end;
  changed

let node_fault flip kind t nid =
  let changed = flip t.g nid in
  if changed then
    emit_fault t kind ~detail:("n" ^ string_of_int nid)
      ~value:(float_of_int nid);
  changed

let crash_node = node_fault Flat_topology.crash_node Trace.Node_crash
let restart_node = node_fault Flat_topology.restart_node Trace.Node_restart

let partition t ~group =
  let in_group = Array.make (node_count t) false in
  List.iter
    (fun id ->
      check_node t id "partition";
      in_group.(id) <- true)
    group;
  emit_fault t Trace.Partition ~detail:"cut"
    ~value:(float_of_int (List.length group));
  let cut = ref 0 in
  for cid = 0 to cable_count t - 1 do
    let a, b = Flat_topology.cable_endpoints t.g cid in
    if in_group.(a) <> in_group.(b) && set_cable t cid ~up:false then incr cut
  done;
  !cut

let heal t =
  emit_fault t Trace.Heal ~detail:"" ~value:0.0;
  let restored = ref 0 in
  for cid = 0 to cable_count t - 1 do
    if (not (Flat_topology.is_cable_up t.g cid)) && set_cable t cid ~up:true
    then incr restored
  done;
  !restored

let is_cable_up t cid = Flat_topology.is_cable_up t.g cid
let is_node_up t nid = Flat_topology.is_node_up t.g nid
let fault_transitions t = Flat_topology.fault_transitions t.g
let fault_drops t = t.bh_inject + t.bh_deliver

(* ------------------------------------------------------------------ *)
(* Overlays *)

let drop_faulted t ~phase ~src_label ~packet ~hop =
  (match phase with
  | `Inject -> t.bh_inject <- t.bh_inject + 1
  | `Deliver -> t.bh_deliver <- t.bh_deliver + 1);
  if t.traced then
    Trace.emit t.trace
      (Trace.event ~time:(Engine.now t.engine) ~src:src_label ~detail:"fault"
         ~packet ~hop Trace.Packet_dropped)

(* End-of-overlay delivery: the substrate edges carry no obs context
   of their own, so the topology records the moment a packet reaches
   an endpoint — the event that closes a packet's causal chain and
   lets the lifecycle analyzer date time-to-consistency and repair.
   The src is [label ^ ".end"], distinct from the head server's label:
   endpoints emit no [Packet_sent], so the per-source conservation
   identity over the head link is left untouched. *)
let endpoint_delivered t ~now ~label ~detail ~hop id =
  if t.traced && id <> Packet.no_id then
    Trace.emit t.trace
      (Trace.event ~time:now ~src:(label ^ ".end") ~detail ~packet:id ~hop
         Trace.Packet_delivered)

(* Packets each edge queue holds. *)
let edge_qcap = 256

(* One overlay's edges as a struct of arrays: entry [i] of each array
   describes overlay edge [i], a FIFO server at the topology's rate and
   loss with no propagation delay. Edge [i] is [busy] while
   [serving.(i)] is on it, and up to [edge_qcap] more packets wait in
   [queues.(i)]. [serving] is allocated on first use, since only a
   packet can fill it. Edges are indexed by parent node, so node [v]'s
   child edges are [first_child.(v) .. first_child.(v + 1) - 1].

   Fault gates as on a single edge: the send side admits a packet only
   while the cable and the sending node are up, and completion
   re-checks the cable and the receiving node (packets in flight when
   either goes down are destroyed). Both gates test [all_up] first, an
   exact O(1) count, and read the fault bits only while something is
   down. [hop] is the edge's position along the overlay (the head
   server is hop 0, an edge into a node at depth d is hop d), stamped
   on every edge trace event so a packet's causal chain reads in path
   order. The edges carry no obs context of their own; the topology's
   counters and trace events cover the substrate. *)
type 'a edges = {
  topo : t;
  rng : Rng.t;
  cable : int array;
  dst : int array;
  hop : int array;
  elabel : string array;
  loss : Loss.t array;
  busy : bool array;
  mutable serving : 'a Packet.t array;
  queues : 'a Packet.t Ring.t array;
  next : int array; (* the next member of [i]'s wave, or -1 *)
  complete : (Engine.t -> unit) array; (* the event finishing [i]'s wave *)
  first_child : int array;
  local : now:float -> int -> 'a Packet.t -> unit;
      (* delivery to the overlay's own endpoints at a node *)
}

let gate_open t ~cable ~node =
  Flat_topology.all_up t.g
  || Flat_topology.is_cable_up t.g cable && Flat_topology.is_node_up t.g node

let service t (packet : 'a Packet.t) =
  float_of_int packet.Packet.size_bits /. t.rate_bps

(* Put [packet] on idle edge [i], as the last edge of its wave so far. *)
let start es i packet =
  let t = es.topo in
  if Array.length es.serving = 0 then
    es.serving <- Array.make (Array.length es.busy) packet;
  es.busy.(i) <- true;
  es.serving.(i) <- packet;
  es.next.(i) <- -1;
  t.sent <- t.sent + 1

(* Offer [packet] to edge [i] out of [node] through its send-side gate:
   [true] when the edge was idle and [packet] is now on it. *)
let admit es i ~node packet =
  let t = es.topo in
  t.injected <- t.injected + 1;
  if not (gate_open t ~cable:es.cable.(i) ~node) then begin
    drop_faulted t ~phase:`Inject ~src_label:es.elabel.(i)
      ~packet:packet.Packet.id ~hop:es.hop.(i);
    false
  end
  else if es.busy.(i) then begin
    if Ring.push es.queues.(i) packet then t.queued <- t.queued + 1
    else t.overflowed <- t.overflowed + 1;
    false
  end
  else begin
    start es i packet;
    true
  end

(* [packet] reaches [node]: the overlay's endpoints there hear it
   first, then it floods the node's child edges. The idle ones form a
   wave: they start together, chained through [next] in child order,
   and one calendar event finishes them all [service] later. One event
   per edge would be a heap run of consecutive inserts at one instant,
   which nothing can join or split, so the wave fires at the same
   place in (time, scheduling order) and does the same work in the
   same order. Busy edges queue the packet. *)
let rec arrive es ~now node packet =
  es.local ~now node packet;
  let last = ref (-1) in
  for i = es.first_child.(node) to es.first_child.(node + 1) - 1 do
    if admit es i ~node packet then begin
      if !last < 0 then
        Engine.schedule es.topo.engine ~after:(service es.topo packet)
          es.complete.(i)
      else es.next.(!last) <- i;
      last := i
    end
  done

(* Edge [i]'s packet completes service, as a Link's would: the loss
   draw, then the receive-side gate, then delivery into the child
   node, then the edge's next queued packet as a wave of one. *)
and finish es i ~now =
  let t = es.topo in
  let packet = es.serving.(i) in
  if Loss.drop es.loss.(i) es.rng then t.dropped <- t.dropped + 1
  else begin
    t.delivered <- t.delivered + 1;
    if gate_open t ~cable:es.cable.(i) ~node:es.dst.(i) then
      arrive es ~now es.dst.(i) packet
    else
      drop_faulted t ~phase:`Deliver ~src_label:es.elabel.(i)
        ~packet:packet.Packet.id ~hop:es.hop.(i)
  end;
  match Ring.pop es.queues.(i) with
  | None -> es.busy.(i) <- false
  | Some queued ->
      t.queued <- t.queued - 1;
      start es i queued;
      Engine.schedule t.engine ~after:(service t queued) es.complete.(i)

(* Finish the wave that starts at edge [i], in child order. Each
   member's successor is read before the member finishes, since a
   member that starts its next packet leaves the wave. *)
let rec finish_wave es i ~now =
  let next = es.next.(i) in
  finish es i ~now;
  if next >= 0 then finish_wave es next ~now

(* The edge table over [children.(v)], the edge ids leaving node [v]
   in child order. [depth] gives each node's hop index. *)
let edges (t : t) ~rng ~depth ~local children =
  let n = node_count t in
  let first_child = Array.make (n + 1) 0 in
  Array.iteri
    (fun v eids -> first_child.(v + 1) <- first_child.(v) + List.length eids)
    children;
  let eids = Array.of_list (List.concat (Array.to_list children)) in
  let m = Array.length eids in
  let dst = Array.map (fun eid -> snd (edge_ends t eid)) eids in
  let es =
    { topo = t; rng; cable = Array.map (fun eid -> eid lsr 1) eids; dst;
      hop = Array.map (fun v -> depth.(v)) dst;
      elabel = Array.map (Printf.sprintf "%s.e%d" label) eids;
      loss = Array.init m (fun _ -> t.loss ());
      busy = Array.make m false; serving = [||];
      queues = Array.init m (fun _ -> Ring.create ~capacity:edge_qcap);
      next = Array.make m (-1); complete = Array.make m ignore; first_child;
      local }
  in
  for i = 0 to m - 1 do
    es.complete.(i) <-
      (fun engine -> finish_wave es i ~now:(Engine.now engine))
  done;
  es

let depths t ~root =
  Array.init (node_count t) (fun v -> Flat_topology.dist t.g ~src:root ~dst:v)

(* The edge table along the path [src] to [dst], returned as the entry
   the head server delivers into: every node on the path but [dst] has
   one child edge. The same packet, id and size unchanged, crosses
   every hop; past the last, its payload goes to [deliver]. *)
let path_entry (t : t) ~src ~dst ~label ~deliver =
  let rng = Rng.split t.rng in
  let depth = depths t ~root:src in
  let local ~now node (packet : 'a Packet.t) =
    if node = dst then begin
      endpoint_delivered t ~now ~label ~detail:"endpoint" ~hop:depth.(dst)
        packet.Packet.id;
      deliver ~now packet.Packet.payload
    end
  in
  let children = Array.make (node_count t) [] in
  List.iter
    (fun eid -> children.(fst (edge_ends t eid)) <- [ eid ])
    (path t ~src ~dst);
  let es = edges t ~rng ~depth ~local children in
  fun ~now packet -> arrive es ~now src packet

let unicast_over t ~src ~dst ~rate_bps ?delay ?loss ?on_served ~label ~rng
    ~fetch ~deliver () =
  let entry = path_entry t ~src ~dst ~label ~deliver in
  (* The access hop: the sender's own server at the protocol's rate,
     carrying the protocol-level loss/delay, feeding the first edge. *)
  let head =
    Link.create t.engine ~rate_bps ?delay ?loss ?on_served ?obs:t.obs ~label
      ~hop:0 ~rng ~fetch ~deliver:entry ()
  in
  { Transport.u_kick = (fun () -> Link.kick head);
    u_stats = (fun () -> Link.stats head);
    u_utilisation = (fun ~now -> Link.utilisation head ~now) }

let outbox_over t ~src ~dst ~rate_bps ?delay ?loss ?(queue_capacity = 1024)
    ~label ~rng ~deliver () =
  let entry = path_entry t ~src ~dst ~label ~deliver in
  let head =
    Pipe.create t.engine ~rate_bps ?delay ?loss ~queue_capacity ?obs:t.obs
      ~label ~hop:0 ~rng ~deliver:entry ()
  in
  { Transport.o_send = (fun p -> Pipe.send head p);
    o_overflows = (fun () -> Pipe.overflows head);
    o_stats = (fun () -> Pipe.link_stats head) }

type 'a subscriber = {
  sid : int;
  s_loss : Loss.t;
  s_deliver : 'a Transport.deliver;
  mutable s_lost : int;
}

module Sub_map = Map.Make (Int)

(* Keep a subscriber list sorted by ascending sid under insertion.
   Sids are handed out monotonically so this is an append in practice,
   but the sort invariant — not the allocation sequence — is what
   delivery order is allowed to depend on. *)
let rec insert_sub s = function
  | [] -> [ s ]
  | x :: _ as l when s.sid < x.sid -> s :: l
  | x :: rest -> x :: insert_sub s rest

let fanout_over (t : t) ~root ~attach ~rate_bps ?delay ?on_served ~label
    ~rng ~fetch () =
  let overlay_rng = Rng.split t.rng in
  let n = node_count t in
  (* BFS depth doubles as the hop index on edge trace events: the
     shared root server is hop 0, an edge into a depth-d node is hop d. *)
  let depth = depths t ~root in
  let subs : 'a subscriber Sub_map.t ref = ref Sub_map.empty in
  let at_node = Array.make n [] in
  let next_sid = ref 0 in
  (* Local subscribers hear a packet before it floods the node's child
     edges, in ascending sid order, each through its own last-hop loss
     process. The explicit sid order keeps the per-subscriber loss
     draws — and hence every golden pin — a function of the
     subscription history alone. Snapshot semantics as in {!Channel}:
     the subscriber list for this packet is read once, so a callback
     may subscribe freely, and a subscriber it adds first hears the
     next packet. The walk is a named recursion over the list, so a
     hop allocates no closure. *)
  let rec deliver_local node ~now (packet : 'a Packet.t) = function
    | [] -> ()
    | s :: rest ->
        if Loss.drop s.s_loss overlay_rng then s.s_lost <- s.s_lost + 1
        else begin
          if t.traced then
            endpoint_delivered t ~now ~label ~detail:(string_of_int s.sid)
              ~hop:depth.(node) packet.Packet.id;
          s.s_deliver ~now packet.Packet.payload
        end;
        deliver_local node ~now packet rest
  in
  let local ~now node packet = deliver_local node ~now packet at_node.(node) in
  let es = edges t ~rng:overlay_rng ~depth ~local (tree_children t ~root) in
  let emit ~now packet =
    if Flat_topology.is_node_up t.g root then arrive es ~now root packet
    else
      drop_faulted t ~phase:`Deliver ~src_label:label ~packet:packet.Packet.id
        ~hop:0
  in
  (* The shared root server: a lossless Link with no obs, so it draws
     nothing from [rng] and delivers every packet it completes. *)
  let server =
    Link.create t.engine ~rate_bps ?delay ?on_served ~rng ~fetch
      ~deliver:emit ()
  in
  { Transport.f_kick = (fun () -> Link.kick server);
    f_subscribe =
      (fun ~loss deliver ->
        let sid = !next_sid in
        incr next_sid;
        let node = attach sid in
        let s = { sid; s_loss = loss; s_deliver = deliver; s_lost = 0 } in
        subs := Sub_map.add sid s !subs;
        at_node.(node) <- insert_sub s at_node.(node);
        sid);
    f_served = (fun () -> (Link.stats server).Link.Stats.delivered);
    f_receiver_losses =
      (fun sid ->
        match Sub_map.find_opt sid !subs with
        | Some s -> s.s_lost
        | None -> raise Not_found);
    f_utilisation = (fun ~now -> Link.utilisation server ~now) }

let transport t =
  let src = 0 in
  let dst = farthest t ~src in
  let attach =
    let others =
      Array.of_list
        (List.filter (fun v -> v <> src) (List.init (node_count t) Fun.id))
    in
    if Array.length others = 0 then fun _ -> src
    else fun i -> others.(i mod Array.length others)
  in
  { Transport.name = "topology:" ^ kind t;
    unicast =
      (fun ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver () ->
        unicast_over t ~src ~dst ~rate_bps ?delay ?loss ?on_served ~label
          ~rng ~fetch ~deliver ());
    outbox =
      (fun ~rate_bps ?delay ?loss ?queue_capacity:qc ~label ~rng ~deliver () ->
        outbox_over t ~src:dst ~dst:src ~rate_bps ?delay ?loss
          ?queue_capacity:qc ~label ~rng ~deliver ());
    fanout =
      (fun ~rate_bps ?delay ?on_served ~label ~rng ~fetch () ->
        fanout_over t ~root:src ~attach ~rate_bps ?delay
          ?on_served ~label ~rng ~fetch ()) }
