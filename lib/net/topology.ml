module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

(* Graph, routes and fault bits all live in the flat core [g]; this
   record adds only what packet-level overlays need. Every directed
   edge carries the topology-wide rate, delay and loss, so an edge is
   just its id [eid = 2 * cable + dir]: direction 0 runs from the
   cable's first endpoint to its second, direction 1 back. *)
type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t option;
  trace : Trace.t;
  traced : bool;
  label : string;
  g : Flat_topology.t;
  rate_bps : float;
  delay : float;
  loss : unit -> Loss.t;
  mutable bh_inject : int;   (* packets destroyed entering a down element *)
  mutable bh_deliver : int;  (* packets destroyed leaving a down element *)
  mutable injected : int;    (* packets offered to an edge stage *)
  mutable pipe_readers : (unit -> Link.Stats.t * int * int) list;
      (* per overlay edge pipe: (link stats, overflows, queue length) *)
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
  s_serving : int;
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

(* Aggregate the substrate accounting: every packet offered to an edge
   stage is, at any instant, in exactly one of the [substrate] buckets
   (blackholed at the gate, rejected by the bounded queue, waiting in
   the queue, on the edge server, destroyed by the edge loss process,
   or past its loss draw), so
   [s_injected = s_blackholed_inject + s_overflowed + s_queued + s_sent]
   holds exactly — the per-edge packet-conservation invariant the
   checker's oracles verify. *)
let substrate t =
  let overflowed = ref 0 and queued = ref 0 in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  List.iter
    (fun read ->
      let stats, ov, ql = read () in
      overflowed := !overflowed + ov;
      queued := !queued + ql;
      sent := !sent + stats.Link.Stats.fetched;
      delivered := !delivered + stats.Link.Stats.delivered;
      dropped := !dropped + stats.Link.Stats.dropped)
    t.pipe_readers;
  { s_injected = t.injected;
    s_blackholed_inject = t.bh_inject;
    s_blackholed_deliver = t.bh_deliver;
    s_overflowed = !overflowed;
    s_queued = !queued;
    s_sent = !sent;
    s_delivered = !delivered;
    s_dropped = !dropped;
    s_serving = !sent - !delivered - !dropped }

let note_pipe t pipe =
  t.pipe_readers <-
    (fun () -> (Pipe.link_stats pipe, Pipe.overflows pipe, Pipe.queue_length pipe))
    :: t.pipe_readers

let count_down n up =
  let down = ref 0 in
  for i = 0 to n - 1 do
    if not (up i) then incr down
  done;
  !down

(* ------------------------------------------------------------------ *)
(* Construction *)

let wrap ~engine ~rng ?obs ?(label = "topo") ~rate_bps ?(delay = 0.0)
    ?(loss = fun () -> Loss.never) g =
  if rate_bps <= 0.0 then invalid_arg "Topology: rate must be positive";
  if delay < 0.0 then invalid_arg "Topology: negative delay";
  let t =
    { engine; rng; obs; trace = Obs.trace_of obs;
      traced = Trace.enabled (Obs.trace_of obs); label; g; rate_bps; delay;
      loss; bh_inject = 0; bh_deliver = 0; injected = 0; pipe_readers = [] }
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

let star ~engine ~rng ?obs ?label ?delay ?loss ~rate_bps ~leaves () =
  wrap ~engine ~rng ?obs ?label ~rate_bps ?delay ?loss
    (Flat_topology.star ~leaves ())

let chain ~engine ~rng ?obs ?label ?delay ?loss ~rate_bps ~hops () =
  wrap ~engine ~rng ?obs ?label ~rate_bps ?delay ?loss
    (Flat_topology.chain ~hops ())

let kary_tree ~engine ~rng ?obs ?label ?delay ?loss ~rate_bps ~arity ~depth ()
    =
  wrap ~engine ~rng ?obs ?label ~rate_bps ?delay ?loss
    (Flat_topology.kary_tree ~arity ~depth ())

let random_graph ~engine ~rng ?obs ?label ?delay ?loss ~rate_bps ~nodes
    ~edge_prob () =
  wrap ~engine ~rng ?obs ?label ~rate_bps ?delay ?loss
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
      (Trace.event ~time:(Engine.now t.engine) ~src:t.label ~detail ~value
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

let drop_faulted t ~phase ~src_label ?(packet = Packet.no_id)
    ?(hop = Trace.no_id) () =
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

(* One forwarding stage per directed edge [eid]: a Pipe at the
   topology's rate / delay / loss. The send-side gate admits a packet
   only while the cable and the sending node are up, and delivery
   re-checks the cable and the receiving node (packets in flight when
   either goes down are destroyed). Both gates test [all_up] first, an
   exact O(1) count, and read the fault bits only while something is
   down. Overlay pipes carry no obs context of their own — per-edge
   probes would collide across overlays; the topology's fault
   counters and trace events cover the substrate.
   [hop] is the stage's position along the overlay path (the head
   server is hop 0), stamped on every edge trace event so a packet's
   causal chain reads in path order. *)
let edge_stage t ~qcap ~overlay_rng ~hop eid next =
  let cable = eid lsr 1 in
  let src, dst = edge_ends t eid in
  let elabel = Printf.sprintf "%s.e%d" t.label eid in
  let pipe =
    Pipe.create t.engine ~rate_bps:t.rate_bps ~delay:t.delay ~loss:(t.loss ())
      ~queue_capacity:qcap ~label:elabel ~hop ~rng:overlay_rng
      ~deliver:(fun ~now packet ->
        if
          Flat_topology.all_up t.g
          || Flat_topology.is_cable_up t.g cable
             && Flat_topology.is_node_up t.g dst
        then next ~now packet
        else
          drop_faulted t ~phase:`Deliver ~src_label:elabel
            ~packet:packet.Packet.id ~hop ())
      ()
  in
  note_pipe t pipe;
  fun ~now:_ (packet : 'a Packet.t) ->
    t.injected <- t.injected + 1;
    if
      Flat_topology.all_up t.g
      || Flat_topology.is_cable_up t.g cable
         && Flat_topology.is_node_up t.g src
    then ignore (Pipe.send pipe packet)
    else
      drop_faulted t ~phase:`Inject ~src_label:elabel ~packet:packet.Packet.id
        ~hop ()

(* The edge stages along [edges], returned as the entry the head
   server delivers into. The same packet, id and size unchanged,
   crosses every hop; past the last, its payload goes to [deliver]. *)
let path_entry t ~qcap ~label ~deliver edges =
  let overlay_rng = Rng.split t.rng in
  let n = List.length edges in
  let final ~now (packet : 'a Packet.t) =
    endpoint_delivered t ~now ~label ~detail:"endpoint" ~hop:n
      packet.Packet.id;
    deliver ~now packet.Packet.payload
  in
  let _, entry =
    List.fold_right
      (fun eid (hop, next) ->
        (hop - 1, edge_stage t ~qcap ~overlay_rng ~hop eid next))
      edges (n, final)
  in
  entry

let unicast_over t ~path_edges ~qcap ~rate_bps ?delay ?loss ?on_served ~label
    ~rng ~fetch ~deliver () =
  let entry = path_entry t ~qcap ~label ~deliver path_edges in
  (* The access hop: the sender's own server at the protocol's rate,
     carrying the protocol-level loss/delay, feeding the first edge. *)
  let head =
    Link.create t.engine ~rate_bps ?delay ?loss ?on_served ?obs:t.obs ~label
      ~hop:0 ~rng ~fetch ~deliver:entry ()
  in
  { Transport.u_label = label;
    u_kick = (fun () -> Link.kick head);
    u_set_rate = (fun rate -> Link.set_rate head rate);
    u_stats = (fun () -> Link.stats head);
    u_utilisation = (fun ~now -> Link.utilisation head ~now) }

let outbox_over t ~path_edges ~qcap ~rate_bps ?delay ?loss
    ?(queue_capacity = 1024) ~label ~rng ~deliver () =
  let entry = path_entry t ~qcap ~label ~deliver path_edges in
  let head =
    Pipe.create t.engine ~rate_bps ?delay ?loss ~queue_capacity ?obs:t.obs
      ~label ~hop:0 ~rng ~deliver:entry ()
  in
  { Transport.o_label = label;
    o_send = (fun p -> Pipe.send head p);
    o_queue_length = (fun () -> Pipe.queue_length head);
    o_overflows = (fun () -> Pipe.overflows head);
    o_stats = (fun () -> Pipe.link_stats head);
    o_set_rate = (fun rate -> Pipe.set_rate head rate) }

type 'a subscriber = {
  sid : int;
  s_loss : Loss.t;
  s_deliver : 'a Transport.deliver;
  mutable s_lost : int;
  mutable s_live : bool; (* cleared by unsubscribe *)
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

let fanout_over t ~root ~attach ~qcap ~rate_bps ?delay ?on_served ~label
    ~rng ~fetch () =
  let overlay_rng = Rng.split t.rng in
  let children = tree_children t ~root in
  let n = node_count t in
  (* BFS depth doubles as the hop index on edge trace events: the
     shared root server is hop 0, an edge into a depth-d node is hop d. *)
  let depth = Array.init n (fun v -> Flat_topology.dist t.g ~src:root ~dst:v) in
  let subs : 'a subscriber Sub_map.t ref = ref Sub_map.empty in
  let at_node = Array.make n [] in
  let next_sid = ref 0 in
  let stages = Array.make n [] in
  (* Hop delivery: local subscribers first, in ascending sid order
     (each through its own last-hop loss process), then flood the
     child edges. The explicit sid order keeps the per-subscriber
     loss draws — and hence every golden pin — a function of the
     subscription history alone. Snapshot semantics as in {!Channel}:
     the subscriber list for this packet is read once, so callbacks
     may (un)subscribe freely; one unsubscribed mid-walk is skipped.
     Both walks are named recursions over the lists, so a hop
     allocates no closure. *)
  let rec deliver_local node ~now (packet : 'a Packet.t) = function
    | [] -> ()
    | s :: rest ->
        if s.s_live then begin
          if Loss.drop s.s_loss overlay_rng then s.s_lost <- s.s_lost + 1
          else begin
            if t.traced then
              endpoint_delivered t ~now ~label ~detail:(string_of_int s.sid)
                ~hop:depth.(node) packet.Packet.id;
            s.s_deliver ~now packet.Packet.payload
          end
        end;
        deliver_local node ~now packet rest
  in
  let rec flood ~now packet = function
    | [] -> ()
    | stage :: rest ->
        stage ~now packet;
        flood ~now packet rest
  in
  let forward node ~now packet =
    deliver_local node ~now packet at_node.(node);
    flood ~now packet stages.(node)
  in
  (* Instantiate the tree's edge stages (ascending node, then eid). *)
  Array.iteri
    (fun node eids ->
      stages.(node) <-
        List.map
          (fun eid ->
            let _, dst = edge_ends t eid in
            edge_stage t ~qcap ~overlay_rng ~hop:depth.(dst) eid
              (fun ~now packet -> forward dst ~now packet))
          eids)
    children;
  let emit ~now packet =
    if Flat_topology.is_node_up t.g root then forward root ~now packet
    else
      drop_faulted t ~phase:`Deliver ~src_label:label ~packet:packet.Packet.id
        ~hop:0 ()
  in
  (* The shared root server: a lossless Link with no obs, so it draws
     nothing from [rng] and delivers every packet it completes. *)
  let server =
    Link.create t.engine ~rate_bps ?delay ?on_served ~rng ~fetch
      ~deliver:emit ()
  in
  { Transport.f_label = label;
    f_kick = (fun () -> Link.kick server);
    f_subscribe =
      (fun ~loss deliver ->
        let sid = !next_sid in
        incr next_sid;
        let node = attach sid in
        check_node t node "transport.attach";
        let s =
          { sid; s_loss = loss; s_deliver = deliver; s_lost = 0; s_live = true }
        in
        subs := Sub_map.add sid s !subs;
        at_node.(node) <- insert_sub s at_node.(node);
        sid);
    f_unsubscribe =
      (fun sid ->
        match Sub_map.find_opt sid !subs with
        | None -> ()
        | Some s ->
            s.s_live <- false;
            subs := Sub_map.remove sid !subs;
            Array.iteri
              (fun i l ->
                if List.memq s l then at_node.(i) <- List.filter (( != ) s) l)
              at_node);
    f_subscriber_count = (fun () -> Sub_map.cardinal !subs);
    f_served = (fun () -> (Link.stats server).Link.Stats.delivered);
    f_receiver_losses =
      (fun sid ->
        match Sub_map.find_opt sid !subs with
        | Some s -> s.s_lost
        | None -> raise Not_found);
    f_utilisation = (fun ~now -> Link.utilisation server ~now) }

let transport ?(src = 0) ?dst ?attach ?(queue_capacity = 256) t =
  check_node t src "transport";
  let dst =
    match dst with
    | Some d ->
        check_node t d "transport";
        d
    | None -> farthest t ~src
  in
  let attach =
    match attach with
    | Some f -> f
    | None ->
        let others =
          Array.of_list
            (List.filter (fun v -> v <> src)
               (List.init (node_count t) Fun.id))
        in
        if Array.length others = 0 then fun _ -> src
        else fun i -> others.(i mod Array.length others)
  in
  let data_path = path t ~src ~dst in
  let fb_path = path t ~src:dst ~dst:src in
  { Transport.name = "topology:" ^ kind t;
    unicast =
      (fun ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver () ->
        unicast_over t ~path_edges:data_path ~qcap:queue_capacity ~rate_bps
          ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver ());
    outbox =
      (fun ~rate_bps ?delay ?loss ?queue_capacity:qc ~label ~rng ~deliver () ->
        outbox_over t ~path_edges:fb_path ~qcap:queue_capacity ~rate_bps
          ?delay ?loss ?queue_capacity:qc ~label ~rng ~deliver ());
    fanout =
      (fun ~rate_bps ?delay ?on_served ~label ~rng ~fetch () ->
        fanout_over t ~root:src ~attach ~qcap:queue_capacity ~rate_bps ?delay
          ?on_served ~label ~rng ~fetch ()) }
