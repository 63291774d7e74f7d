(* Reference model of a topology's overlays: one Pipe per directed
   edge, chained by closures, each completion its own calendar event.
   It follows the same forwarding rules as [Topology]'s edge table —
   fault gates, per-edge queues of 256 packets, loss draws at service
   completion, endpoint trace events — through public interfaces only,
   so the differential test in test_net can run both over the same
   traffic and compare every trace line, delivery and substrate
   counter. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Trace = Softstate_obs.Trace
module Net = Softstate_net
module Topology = Net.Topology
module Transport = Net.Transport
module Link = Net.Link
module Pipe = Net.Pipe
module Loss = Net.Loss
module Packet = Net.Packet

type t = {
  topo : Topology.t;
  engine : Engine.t;
  rng : Rng.t; (* the generator the topology was built with *)
  obs : Softstate_obs.Obs.t;
  trace : Trace.t;
  rate_bps : float;
  loss : unit -> Loss.t;
  mutable bh_inject : int;
  mutable bh_deliver : int;
  mutable injected : int;
  mutable pipes : (unit -> Link.Stats.t * int * int) list;
}

let create ~topo ~rng ~obs ~rate_bps ~loss =
  { topo; engine = Topology.engine topo; rng; obs;
    trace = Softstate_obs.Obs.trace_of (Some obs); rate_bps; loss;
    bh_inject = 0; bh_deliver = 0; injected = 0; pipes = [] }

let substrate r =
  let sum f = List.fold_left (fun acc read -> acc + f (read ())) 0 r.pipes in
  { Topology.s_injected = r.injected;
    s_blackholed_inject = r.bh_inject;
    s_blackholed_deliver = r.bh_deliver;
    s_overflowed = sum (fun (_, ov, _) -> ov);
    s_queued = sum (fun (_, _, ql) -> ql);
    s_sent = sum (fun (s, _, _) -> s.Link.Stats.fetched);
    s_delivered = sum (fun (s, _, _) -> s.Link.Stats.delivered);
    s_dropped = sum (fun (s, _, _) -> s.Link.Stats.dropped) }

let edge_ends r eid =
  let a, b = Topology.cable_endpoints r.topo (eid lsr 1) in
  if eid land 1 = 0 then (a, b) else (b, a)

let depth r ~root v = List.length (Topology.path r.topo ~src:root ~dst:v)

let drop_faulted r ~phase ~src ~packet ~hop =
  (match phase with
  | `Inject -> r.bh_inject <- r.bh_inject + 1
  | `Deliver -> r.bh_deliver <- r.bh_deliver + 1);
  if Trace.enabled r.trace then
    Trace.emit r.trace
      (Trace.event ~time:(Engine.now r.engine) ~src ~detail:"fault" ~packet
         ~hop Trace.Packet_dropped)

let endpoint_delivered r ~now ~label ~detail ~hop id =
  if Trace.enabled r.trace && id <> Packet.no_id then
    Trace.emit r.trace
      (Trace.event ~time:now ~src:(label ^ ".end") ~detail ~packet:id ~hop
         Trace.Packet_delivered)

let gate_open r ~cable ~node =
  Topology.is_cable_up r.topo cable && Topology.is_node_up r.topo node

(* One Pipe for edge [eid], feeding [next]. *)
let edge_stage r ~rng ~hop eid next =
  let cable = eid lsr 1 in
  let src, dst = edge_ends r eid in
  let elabel = Printf.sprintf "topo.e%d" eid in
  let pipe =
    Pipe.create r.engine ~rate_bps:r.rate_bps ~loss:(r.loss ())
      ~queue_capacity:256 ~label:elabel ~hop ~rng
      ~deliver:(fun ~now packet ->
        if gate_open r ~cable ~node:dst then next ~now packet
        else
          drop_faulted r ~phase:`Deliver ~src:elabel ~packet:packet.Packet.id
            ~hop)
      ()
  in
  r.pipes <-
    (fun () ->
      (Pipe.link_stats pipe, Pipe.overflows pipe, Pipe.queue_length pipe))
    :: r.pipes;
  fun ~now:_ (packet : 'a Packet.t) ->
    r.injected <- r.injected + 1;
    if gate_open r ~cable ~node:src then ignore (Pipe.send pipe packet)
    else
      drop_faulted r ~phase:`Inject ~src:elabel ~packet:packet.Packet.id ~hop

let path_entry r ~src ~dst ~label ~deliver =
  let rng = Rng.split r.rng in
  let edges = Topology.path r.topo ~src ~dst in
  let n = List.length edges in
  let final ~now (packet : 'a Packet.t) =
    endpoint_delivered r ~now ~label ~detail:"endpoint" ~hop:n
      packet.Packet.id;
    deliver ~now packet.Packet.payload
  in
  snd
    (List.fold_right
       (fun eid (hop, next) -> (hop - 1, edge_stage r ~rng ~hop eid next))
       edges (n, final))

type 'a sub = { sid : int; s_loss : Loss.t; s_deliver : 'a Transport.deliver }

let fanout r ~root ~attach ~rate_bps ?delay ?on_served ~label ~rng ~fetch () =
  let overlay_rng = Rng.split r.rng in
  let children = Topology.tree_children r.topo ~root in
  let n = Topology.node_count r.topo in
  let at_node = Array.make n [] in
  let lost = Hashtbl.create 8 in
  let next_sid = ref 0 in
  let stages = Array.make n [] in
  let forward node ~now (packet : 'a Packet.t) =
    List.iter
      (fun s ->
        if Loss.drop s.s_loss overlay_rng then
          Hashtbl.replace lost s.sid (Hashtbl.find lost s.sid + 1)
        else begin
          endpoint_delivered r ~now ~label ~detail:(string_of_int s.sid)
            ~hop:(depth r ~root node) packet.Packet.id;
          s.s_deliver ~now packet.Packet.payload
        end)
      at_node.(node);
    List.iter (fun stage -> stage ~now packet) stages.(node)
  in
  Array.iteri
    (fun node eids ->
      stages.(node) <-
        List.map
          (fun eid ->
            let _, dst = edge_ends r eid in
            edge_stage r ~rng:overlay_rng ~hop:(depth r ~root dst) eid
              (fun ~now packet -> forward dst ~now packet))
          eids)
    children;
  let emit ~now packet =
    if Topology.is_node_up r.topo root then forward root ~now packet
    else
      drop_faulted r ~phase:`Deliver ~src:label ~packet:packet.Packet.id
        ~hop:0
  in
  let server =
    Link.create r.engine ~rate_bps ?delay ?on_served ~rng ~fetch
      ~deliver:emit ()
  in
  { Transport.f_kick = (fun () -> Link.kick server);
    f_subscribe =
      (fun ~loss deliver ->
        let sid = !next_sid in
        incr next_sid;
        let node = attach sid in
        Hashtbl.replace lost sid 0;
        at_node.(node) <-
          at_node.(node) @ [ { sid; s_loss = loss; s_deliver = deliver } ];
        sid);
    f_served = (fun () -> (Link.stats server).Link.Stats.delivered);
    f_receiver_losses = (fun sid -> Hashtbl.find lost sid);
    f_utilisation = (fun ~now -> Link.utilisation server ~now) }

(* The reference counterpart of [Topology.transport]. *)
let transport r =
  let src = 0 in
  let dst = Topology.farthest r.topo ~src in
  let others =
    Array.of_list
      (List.filter (fun v -> v <> src)
         (List.init (Topology.node_count r.topo) Fun.id))
  in
  let attach i =
    if Array.length others = 0 then src else others.(i mod Array.length others)
  in
  { Transport.name = "reference";
    unicast =
      (fun ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver () ->
        let entry = path_entry r ~src ~dst ~label ~deliver in
        let head =
          Link.create r.engine ~rate_bps ?delay ?loss ?on_served ~obs:r.obs
            ~label ~hop:0 ~rng ~fetch ~deliver:entry ()
        in
        { Transport.u_kick = (fun () -> Link.kick head);
          u_stats = (fun () -> Link.stats head);
          u_utilisation = (fun ~now -> Link.utilisation head ~now) });
    outbox =
      (fun ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng ~deliver () ->
        let entry = path_entry r ~src:dst ~dst:src ~label ~deliver in
        let head =
          Pipe.create r.engine ~rate_bps ?delay ?loss ?queue_capacity ~obs:r.obs
            ~label ~hop:0 ~rng ~deliver:entry ()
        in
        { Transport.o_send = (fun p -> Pipe.send head p);
          o_overflows = (fun () -> Pipe.overflows head);
          o_stats = (fun () -> Pipe.link_stats head) });
    fanout =
      (fun ~rate_bps ?delay ?on_served ~label ~rng ~fetch () ->
        fanout r ~root:src ~attach ~rate_bps ?delay ?on_served ~label ~rng
          ~fetch ()) }
