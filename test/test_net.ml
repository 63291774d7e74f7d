(* Tests for the network substrate: loss models, links, pipes,
   channels. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Loss = Net.Loss
module Packet = Net.Packet
module Link = Net.Link
module Pipe = Net.Pipe
module Channel = Net.Channel

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Loss *)

let test_loss_never () =
  let g = Rng.create 1 in
  for _ = 1 to 1000 do
    if Loss.drop Loss.never g then Alcotest.fail "lossless dropped"
  done

let test_loss_bernoulli_rate () =
  let g = Rng.create 2 in
  let l = Loss.bernoulli 0.25 in
  let n = 100_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Loss.drop l g then incr drops
  done;
  check_close 0.01 "empirical rate" 0.25 (float_of_int !drops /. float_of_int n);
  check_close 0.0 "mean_rate" 0.25 (Loss.mean_rate l)

let test_loss_deterministic () =
  let g = Rng.create 3 in
  let l = Loss.deterministic ~period:4 in
  let pattern = List.init 8 (fun _ -> Loss.drop l g) in
  Alcotest.(check (list bool)) "every 4th"
    [ false; false; false; true; false; false; false; true ]
    pattern

let test_gilbert_elliott_mean () =
  let g = Rng.create 4 in
  let l =
    Loss.gilbert_elliott ~p_good_to_bad:0.1 ~p_bad_to_good:0.3 ~loss_good:0.01
      ~loss_bad:0.5
  in
  (* stationary: pi_bad = 0.1/0.4 = 0.25 -> mean = 0.75*0.01+0.25*0.5 *)
  check_close 1e-9 "analytic mean" 0.1325 (Loss.mean_rate l);
  let n = 400_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Loss.drop l g then incr drops
  done;
  check_close 0.005 "empirical matches stationary" 0.1325
    (float_of_int !drops /. float_of_int n)

let test_gilbert_elliott_burstiness () =
  (* With sticky states, consecutive losses should be much more common
     than under Bernoulli at equal mean. *)
  let g = Rng.create 5 in
  let l =
    Loss.gilbert_elliott ~p_good_to_bad:0.01 ~p_bad_to_good:0.1 ~loss_good:0.0
      ~loss_bad:1.0
  in
  let n = 200_000 in
  let prev = ref false in
  let consecutive = ref 0 and losses = ref 0 in
  for _ = 1 to n do
    let d = Loss.drop l g in
    if d then begin
      incr losses;
      if !prev then incr consecutive
    end;
    prev := d
  done;
  let p_loss = float_of_int !losses /. float_of_int n in
  let p_cc = float_of_int !consecutive /. float_of_int !losses in
  Alcotest.(check bool) "bursty: P(loss|loss) >> P(loss)" true
    (p_cc > 3.0 *. p_loss)


let test_loss_controlled () =
  let l, set = Loss.controlled () in
  let g = Rng.create 6 in
  for _ = 1 to 100 do
    if Loss.drop l g then Alcotest.fail "starts lossless"
  done;
  set 1.0;
  check_close 0.0 "mean reflects setting" 1.0 (Loss.mean_rate l);
  for _ = 1 to 100 do
    if not (Loss.drop l g) then Alcotest.fail "full loss drops all"
  done;
  set 0.0;
  for _ = 1 to 100 do
    if Loss.drop l g then Alcotest.fail "healed"
  done;
  (* setter clamps *)
  set 7.5;
  check_close 0.0 "clamped high" 1.0 (Loss.mean_rate l);
  set (-3.0);
  check_close 0.0 "clamped low" 0.0 (Loss.mean_rate l)

let test_loss_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Loss.bernoulli: probability out of [0,1]") (fun () ->
      ignore (Loss.bernoulli 1.5));
  Alcotest.check_raises "period < 1"
    (Invalid_argument "Loss.deterministic: period must be >= 1") (fun () ->
      ignore (Loss.deterministic ~period:0))

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_make () =
  let p = Packet.make ~size_bits:100 "x" in
  Alcotest.(check int) "size" 100 p.Packet.size_bits;
  Alcotest.(check string) "payload" "x" p.Packet.payload;
  Alcotest.check_raises "zero size"
    (Invalid_argument "Packet.make: size must be positive") (fun () ->
      ignore (Packet.make ~size_bits:0 ()))

(* ------------------------------------------------------------------ *)
(* Link *)

(* A link that drains a list of packets and records deliveries. *)
let make_drain_link ?loss ?delay ?(rate = 1000.0) engine packets =
  let remaining = ref packets in
  let delivered = ref [] in
  let fetch () =
    match !remaining with
    | [] -> None
    | p :: rest ->
        remaining := rest;
        Some p
  in
  let link =
    Link.create engine ~rate_bps:rate ?delay ?loss ~rng:(Rng.create 10) ~fetch
      ~deliver:(fun ~now p ->
        delivered := (now, p.Packet.payload) :: !delivered)
      ()
  in
  (link, delivered)

let test_link_service_time () =
  let e = Engine.create () in
  let packets = [ Packet.make ~size_bits:1000 "a"; Packet.make ~size_bits:500 "b" ] in
  let link, delivered = make_drain_link e packets ~rate:1000.0 in
  Link.kick link;
  Engine.run e;
  (* 1000 bits at 1000 bps = 1 s; then 500 bits = 0.5 s later *)
  match List.rev !delivered with
  | [ (t1, "a"); (t2, "b") ] ->
      check_close 1e-9 "first at 1s" 1.0 t1;
      check_close 1e-9 "second at 1.5s" 1.5 t2
  | _ -> Alcotest.fail "wrong deliveries"

let test_link_propagation_delay () =
  let e = Engine.create () in
  let link, delivered =
    make_drain_link e [ Packet.make ~size_bits:1000 "a" ] ~rate:1000.0
      ~delay:0.25
  in
  Link.kick link;
  Engine.run e;
  match !delivered with
  | [ (t, "a") ] -> check_close 1e-9 "service + delay" 1.25 t
  | _ -> Alcotest.fail "wrong deliveries"

let test_link_loss_counting () =
  let e = Engine.create () in
  let packets = List.init 1000 (fun i -> Packet.make ~size_bits:10 i) in
  let link, delivered =
    make_drain_link e packets ~loss:(Loss.deterministic ~period:2)
  in
  Link.kick link;
  Engine.run e;
  let stats = Link.stats link in
  Alcotest.(check int) "fetched all" 1000 stats.Link.Stats.fetched;
  Alcotest.(check int) "half dropped" 500 stats.Link.Stats.dropped;
  Alcotest.(check int) "half delivered" 500 stats.Link.Stats.delivered;
  Alcotest.(check int) "delivery list" 500 (List.length !delivered)

let test_link_idles_and_kicks () =
  let e = Engine.create () in
  let source = Queue.create () in
  let delivered = ref 0 in
  let link =
    Link.create e ~rate_bps:1000.0 ~rng:(Rng.create 11)
      ~fetch:(fun () -> Queue.take_opt source)
      ~deliver:(fun ~now:_ _ -> incr delivered)
      ()
  in
  Link.kick link;
  Engine.run e;
  Alcotest.(check int) "nothing yet" 0 !delivered;
  Alcotest.(check bool) "idle" false (Link.is_busy link);
  Queue.add (Packet.make ~size_bits:100 ()) source;
  Link.kick link;
  Engine.run e;
  Alcotest.(check int) "delivered after kick" 1 !delivered

let test_link_on_served_before_loss () =
  let e = Engine.create () in
  let served = ref 0 in
  let source = ref (List.init 10 (fun i -> Packet.make ~size_bits:10 i)) in
  let link =
    Link.create e ~rate_bps:1000.0
      ~loss:(Loss.bernoulli 1.0) (* everything lost *)
      ~on_served:(fun ~now:_ _ -> incr served)
      ~rng:(Rng.create 12)
      ~fetch:(fun () ->
        match !source with
        | [] -> None
        | p :: rest ->
            source := rest;
            Some p)
      ~deliver:(fun ~now:_ _ -> Alcotest.fail "nothing should arrive")
      ()
  in
  Link.kick link;
  Engine.run e;
  Alcotest.(check int) "on_served fires despite loss" 10 !served

let test_link_utilisation () =
  let e = Engine.create () in
  let link, _ =
    make_drain_link e [ Packet.make ~size_bits:1000 "a" ] ~rate:1000.0
  in
  Link.kick link;
  Engine.run ~until:2.0 e;
  check_close 1e-9 "busy half the time" 0.5 (Link.utilisation link ~now:2.0)

(* ------------------------------------------------------------------ *)
(* Pipe *)

let test_pipe_fifo_delivery () =
  let e = Engine.create () in
  let delivered = ref [] in
  let pipe =
    Pipe.create e ~rate_bps:1000.0 ~rng:(Rng.create 13)
      ~deliver:(fun ~now:_ p -> delivered := p.Packet.payload :: !delivered)
      ()
  in
  for i = 1 to 5 do
    Alcotest.(check bool) "send ok" true
      (Pipe.send pipe (Packet.make ~size_bits:100 i))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !delivered)

let test_pipe_overflow () =
  let e = Engine.create () in
  let pipe =
    Pipe.create e ~rate_bps:1.0 ~queue_capacity:2 ~rng:(Rng.create 14)
      ~deliver:(fun ~now:_ _ -> ())
      ()
  in
  (* first send goes straight into service, so capacity 2 + 1 in
     flight accepts three *)
  Alcotest.(check bool) "send 1" true (Pipe.send pipe (Packet.make ~size_bits:1000 1));
  Alcotest.(check bool) "send 2" true (Pipe.send pipe (Packet.make ~size_bits:1000 2));
  Alcotest.(check bool) "send 3" true (Pipe.send pipe (Packet.make ~size_bits:1000 3));
  Alcotest.(check bool) "overflow" false (Pipe.send pipe (Packet.make ~size_bits:1000 4));
  Alcotest.(check int) "overflow count" 1 (Pipe.overflows pipe)

(* Service order across idle and busy phases: one packet into an idle
   link, two more while it serves, one after the queue drains. Each
   100-bit packet takes 0.1 s at 1 kb/s, so deliveries are spaced one
   service time apart from the moment each enters service. *)
let test_pipe_idle_busy_order () =
  let e = Engine.create () in
  let delivered = ref [] in
  let pipe =
    Pipe.create e ~rate_bps:1000.0 ~queue_capacity:2 ~rng:(Rng.create 15)
      ~deliver:(fun ~now p -> delivered := (p.Packet.payload, now) :: !delivered)
      ()
  in
  let send x = Pipe.send pipe (Packet.make ~size_bits:100 x) in
  Alcotest.(check bool) "send to idle" true (send 1);
  Alcotest.(check int) "idle send not queued" 0 (Pipe.queue_length pipe);
  Alcotest.(check int) "fetched into service" 1
    (Pipe.link_stats pipe).Link.Stats.fetched;
  Alcotest.(check bool) "send while busy" true (send 2);
  Alcotest.(check bool) "send while busy" true (send 3);
  Alcotest.(check int) "two queued" 2 (Pipe.queue_length pipe);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Pipe.queue_length pipe);
  Alcotest.(check bool) "send after drain" true (send 4);
  Engine.run e;
  let order = List.rev !delivered in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.map fst order);
  Alcotest.(check (list (float 1e-12))) "service-spaced"
    [ 0.1; 0.2; 0.3; 0.4 ]
    (List.map snd order);
  let st = Pipe.link_stats pipe in
  Alcotest.(check int) "fetched" 4 st.Link.Stats.fetched;
  Alcotest.(check int) "delivered" 4 st.Link.Stats.delivered;
  Alcotest.(check int) "queue empty" 0 (Pipe.queue_length pipe);
  Alcotest.(check int) "no overflows" 0 (Pipe.overflows pipe)

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_fan_out () =
  let e = Engine.create () in
  let source = ref (List.init 100 (fun i -> Packet.make ~size_bits:10 i)) in
  let chan =
    Channel.create e ~rate_bps:10_000.0 ~rng:(Rng.create 15)
      ~fetch:(fun () ->
        match !source with
        | [] -> None
        | p :: rest ->
            source := rest;
            Some p)
      ()
  in
  let got_a = ref 0 and got_b = ref 0 in
  let _a = Channel.subscribe chan (fun ~now:_ _ -> incr got_a) in
  let b = Channel.subscribe chan ~loss:(Loss.deterministic ~period:2)
      (fun ~now:_ _ -> incr got_b)
  in
  Channel.kick chan;
  Engine.run e;
  Alcotest.(check int) "lossless receiver" 100 !got_a;
  Alcotest.(check int) "lossy receiver" 50 !got_b;
  Alcotest.(check int) "server count" 100 (Channel.served chan);
  Alcotest.(check int) "per-receiver losses" 50 (Channel.receiver_losses chan b)

let test_channel_late_join () =
  let e = Engine.create () in
  let sent = ref 0 in
  let chan_ref = ref None in
  let chan =
    Channel.create e ~rate_bps:1000.0 ~rng:(Rng.create 17)
      ~fetch:(fun () ->
        if !sent >= 20 then None
        else begin
          incr sent;
          Some (Packet.make ~size_bits:100 !sent)
        end)
      ()
  in
  chan_ref := Some chan;
  let got = ref 0 in
  (* join after 10 packets (1 s) *)
  Engine.schedule e ~after:1.05 (fun _ ->
      ignore (Channel.subscribe chan (fun ~now:_ _ -> incr got)));
  Channel.kick chan;
  Engine.run e;
  Alcotest.(check bool) "late joiner gets the tail" true (!got > 0 && !got < 20)

(* ------------------------------------------------------------------ *)
(* Channel snapshot semantics: the subscriber set for a packet is
   fixed when its service completes, so a subscriber added from inside
   a delivery callback first hears the next packet, and every earlier
   subscriber still hears the packet being fanned out. *)

let test_channel_subscribe_in_callback () =
  let e = Engine.create () in
  let source = ref (List.init 5 (fun i -> Packet.make ~size_bits:10 i)) in
  let chan =
    Channel.create e ~rate_bps:10_000.0 ~rng:(Rng.create 41)
      ~fetch:(fun () ->
        match !source with
        | [] -> None
        | p :: rest ->
            source := rest;
            Some p)
      ()
  in
  let got_a = ref [] and got_b = ref [] and got_c = ref [] in
  let c_id = ref (-1) in
  let a =
    Channel.subscribe chan (fun ~now:_ v ->
        got_a := v :: !got_a;
        if v = 1 then
          c_id :=
            Channel.subscribe chan (fun ~now:_ v -> got_c := v :: !got_c))
  in
  let b = Channel.subscribe chan (fun ~now:_ v -> got_b := v :: !got_b) in
  Channel.kick chan;
  Engine.run e;
  Alcotest.(check (list int)) "sids in order" [ 0; 1; 2 ] [ a; b; !c_id ];
  Alcotest.(check (list int)) "subscriber a sees every packet"
    [ 0; 1; 2; 3; 4 ] (List.rev !got_a);
  Alcotest.(check (list int)) "subscriber b sees every packet"
    [ 0; 1; 2; 3; 4 ] (List.rev !got_b);
  Alcotest.(check (list int)) "joiner first hears the next packet"
    [ 2; 3; 4 ] (List.rev !got_c)

(* Gilbert–Elliott long-run loss across parameter corners: empirical
   rate must track the stationary-distribution mean, seeded and
   deterministic. *)
let test_gilbert_elliott_stationary_combos () =
  let combos =
    [ (0.05, 0.20, 0.00, 1.00);   (* bursty, clean good state *)
      (0.02, 0.50, 0.005, 0.30);  (* short rare bursts *)
      (0.30, 0.30, 0.10, 0.90);   (* fast mixing *)
      (0.01, 0.05, 0.00, 0.50) ]  (* long dwell both states *)
  in
  List.iteri
    (fun i (p_good_to_bad, p_bad_to_good, loss_good, loss_bad) ->
      let g = Rng.create (400 + i) in
      let l =
        Loss.gilbert_elliott ~p_good_to_bad ~p_bad_to_good ~loss_good
          ~loss_bad
      in
      let pi_bad = p_good_to_bad /. (p_good_to_bad +. p_bad_to_good) in
      let analytic =
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)
      in
      check_close 1e-9
        (Printf.sprintf "combo %d analytic mean" i)
        analytic (Loss.mean_rate l);
      let n = 300_000 in
      let drops = ref 0 in
      for _ = 1 to n do
        if Loss.drop l g then incr drops
      done;
      check_close 0.01
        (Printf.sprintf "combo %d empirical vs stationary" i)
        analytic
        (float_of_int !drops /. float_of_int n))
    combos

(* ------------------------------------------------------------------ *)
(* Topology *)

module Topology = Net.Topology
module Transport = Net.Transport
module Fault = Net.Fault
module Trace = Softstate_obs.Trace
module Obs = Softstate_obs.Obs

let test_topology_star_structure () =
  let e = Engine.create () in
  let t =
    Topology.star ~engine:e ~rng:(Rng.create 60) ~rate_bps:10_000.0 ~leaves:4
      ()
  in
  Alcotest.(check int) "nodes" 5 (Topology.node_count t);
  Alcotest.(check int) "cables" 4 (Topology.cable_count t);
  Alcotest.(check int) "edges" 8 (Topology.edge_count t);
  Alcotest.(check (list int)) "leaves" [ 1; 2; 3; 4 ] (Topology.leaves t);
  Alcotest.(check int) "one hop to each leaf" 1
    (List.length (Topology.path t ~src:0 ~dst:3));
  Alcotest.(check int) "farthest tie-break is lowest id" 1
    (Topology.farthest t ~src:0)

let test_topology_chain_routing () =
  let e = Engine.create () in
  let t =
    Topology.chain ~engine:e ~rng:(Rng.create 61) ~rate_bps:10_000.0 ~hops:5
      ()
  in
  Alcotest.(check int) "nodes" 6 (Topology.node_count t);
  Alcotest.(check int) "farthest" 5 (Topology.farthest t ~src:0);
  let path = Topology.path t ~src:0 ~dst:5 in
  Alcotest.(check int) "hop count" 5 (List.length path);
  (* chain cable i joins i and i+1, so the forward edges are 2i *)
  Alcotest.(check (list int)) "hops in order" [ 0; 2; 4; 6; 8 ] path;
  Alcotest.(check int) "self path is empty" 0
    (List.length (Topology.path t ~src:3 ~dst:3));
  let children = Topology.tree_children t ~root:0 in
  Alcotest.(check int) "line tree: one child" 1 (List.length children.(2));
  Alcotest.(check int) "leaf has none" 0 (List.length children.(5))

let test_topology_kary_tree_structure () =
  let e = Engine.create () in
  let t =
    Topology.kary_tree ~engine:e ~rng:(Rng.create 62) ~rate_bps:10_000.0
      ~arity:2 ~depth:2 ()
  in
  Alcotest.(check int) "nodes" 7 (Topology.node_count t);
  Alcotest.(check int) "cables" 6 (Topology.cable_count t);
  let children = Topology.tree_children t ~root:0 in
  Alcotest.(check int) "root fans to arity" 2 (List.length children.(0));
  Alcotest.(check int) "internal fans to arity" 2 (List.length children.(1));
  Alcotest.(check int) "leaf fans to none" 0 (List.length children.(4));
  Alcotest.(check int) "two hops to a deep leaf" 2
    (List.length (Topology.path t ~src:0 ~dst:6))

let test_topology_random_graph_connected () =
  let e = Engine.create () in
  let t =
    Topology.random_graph ~engine:e ~rng:(Rng.create 63) ~rate_bps:10_000.0
      ~nodes:12 ~edge_prob:0.2 ()
  in
  Alcotest.(check bool) "spanning chain guarantees >= n-1 cables" true
    (Topology.cable_count t >= 11);
  for dst = 1 to 11 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d reachable" dst)
      true
      (List.length (Topology.path t ~src:0 ~dst) >= 1)
  done

let drain_fetch source () =
  match !source with
  | [] -> None
  | p :: rest ->
      source := rest;
      Some p

let test_transport_unicast_over_chain () =
  let e = Engine.create () in
  let t =
    Topology.chain ~engine:e ~rng:(Rng.create 64) ~rate_bps:10_000.0 ~hops:3
      ()
  in
  let tr = Topology.transport t in
  let source = ref (List.init 20 (fun i -> Packet.make ~size_bits:100 i)) in
  let got = ref [] in
  let arrival = ref 0.0 in
  let u =
    tr.Transport.unicast ~rate_bps:10_000.0 ~label:"u" ~rng:(Rng.create 65)
      ~fetch:(drain_fetch source)
      ~deliver:(fun ~now v ->
        arrival := now;
        got := v :: !got)
      ()
  in
  u.Transport.u_kick ();
  Engine.run e;
  Alcotest.(check (list int)) "all packets, in order"
    (List.init 20 (fun i -> i))
    (List.rev !got);
  (* access hop + 3 chain hops at 10 ms each: the pipeline tail must
     arrive no earlier than 23 * 10 ms (last fetch) + 3 hops *)
  Alcotest.(check bool) "multi-hop latency accumulated" true
    (!arrival >= 0.23)

let test_transport_outbox_reverse_path () =
  let e = Engine.create () in
  let t =
    Topology.chain ~engine:e ~rng:(Rng.create 66) ~rate_bps:10_000.0 ~hops:2
      ()
  in
  let tr = Topology.transport t in
  let got = ref 0 in
  let ob =
    tr.Transport.outbox ~rate_bps:10_000.0 ~label:"fb" ~rng:(Rng.create 67)
      ~deliver:(fun ~now:_ _ -> incr got)
      ()
  in
  for i = 1 to 10 do
    Alcotest.(check bool) "accepted" true
      (ob.Transport.o_send (Packet.make ~size_bits:100 i))
  done;
  Engine.run e;
  Alcotest.(check int) "feedback crossed the reverse path" 10 !got

let test_transport_fanout_over_tree () =
  let e = Engine.create () in
  let t =
    Topology.kary_tree ~engine:e ~rng:(Rng.create 68) ~rate_bps:50_000.0
      ~arity:2 ~depth:2 ()
  in
  let tr = Topology.transport t in
  let source = ref (List.init 10 (fun i -> Packet.make ~size_bits:100 i)) in
  let f =
    tr.Transport.fanout ~rate_bps:50_000.0 ~label:"f" ~rng:(Rng.create 69)
      ~fetch:(drain_fetch source) ()
  in
  let counts = Array.make 6 0 in
  for i = 0 to 5 do
    ignore
      (f.Transport.f_subscribe ~loss:Loss.never (fun ~now:_ _ ->
           counts.(i) <- counts.(i) + 1))
  done;
  f.Transport.f_kick ();
  Engine.run e;
  Alcotest.(check int) "root served each packet once" 10
    (f.Transport.f_served ());
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "receiver %d heard every packet" i)
        10 c)
    counts

(* Snapshot semantics of a fan-out hop: a subscriber added by a
   callback, at the node being walked, hears only later packets. *)
let test_transport_fanout_subscribe_in_callback () =
  let e = Engine.create () in
  let t =
    Topology.kary_tree ~engine:e ~rng:(Rng.create 72) ~rate_bps:50_000.0
      ~arity:2 ~depth:1 ()
  in
  let tr = Topology.transport t in
  let source = ref (List.init 3 (fun i -> Packet.make ~size_bits:100 i)) in
  let f =
    tr.Transport.fanout ~rate_bps:50_000.0 ~label:"f" ~rng:(Rng.create 73)
      ~fetch:(drain_fetch source) ()
  in
  (* sids alternate between the two leaves: 0, 2 and 4 share a node *)
  let counts = Array.make 5 0 in
  let hear i ~now:_ _ = counts.(i) <- counts.(i) + 1 in
  let late = ref (-1) in
  let sid0 =
    f.Transport.f_subscribe ~loss:Loss.never (fun ~now p ->
        hear 0 ~now p;
        if !late < 0 then
          late := f.Transport.f_subscribe ~loss:Loss.never (hear 4))
  in
  for i = 1 to 3 do
    Alcotest.(check int) "sids in order" i
      (f.Transport.f_subscribe ~loss:Loss.never (hear i))
  done;
  Alcotest.(check int) "first sid" 0 sid0;
  f.Transport.f_kick ();
  Engine.run e;
  Alcotest.(check int) "sid of the joiner" 4 !late;
  Alcotest.(check (array int)) "deliveries per sid" [| 3; 3; 3; 3; 2 |] counts

let make_faulty_chain () =
  let e = Engine.create () in
  let trace = Trace.memory () in
  let obs = Obs.create ~trace () in
  let t =
    Topology.chain ~engine:e ~rng:(Rng.create 70) ~obs ~rate_bps:10_000.0
      ~hops:2 ()
  in
  let tr = Topology.transport t in
  let source = ref [] in
  let got = ref 0 in
  let u =
    tr.Transport.unicast ~rate_bps:10_000.0 ~label:"u" ~rng:(Rng.create 71)
      ~fetch:(drain_fetch source)
      ~deliver:(fun ~now:_ _ -> incr got)
      ()
  in
  let send n =
    source := List.init n (fun i -> Packet.make ~size_bits:100 i);
    u.Transport.u_kick ()
  in
  (e, trace, t, send, got)

let test_fault_link_down_up () =
  let e, trace, t, send, got = make_faulty_chain () in
  send 5;
  Engine.run ~until:1.0 e;
  Alcotest.(check int) "clean phase delivers" 5 !got;
  Alcotest.(check bool) "cable went down" true
    (Topology.set_cable t 1 ~up:false);
  Alcotest.(check bool) "repeat is a no-op" false
    (Topology.set_cable t 1 ~up:false);
  send 5;
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "blackholed while down" 5 !got;
  Alcotest.(check int) "drops counted" 5 (Topology.fault_drops t);
  Alcotest.(check bool) "cable back up" true (Topology.set_cable t 1 ~up:true);
  send 5;
  Engine.run ~until:3.0 e;
  Alcotest.(check int) "resumed after repair" 10 !got;
  Alcotest.(check int) "two effective transitions" 2
    (Topology.fault_transitions t);
  Alcotest.(check int) "link_down traced" 1 (Trace.count trace Trace.Link_down);
  Alcotest.(check int) "link_up traced" 1 (Trace.count trace Trace.Link_up)

let test_fault_node_crash_restart () =
  let e, trace, t, send, got = make_faulty_chain () in
  send 3;
  Engine.run ~until:1.0 e;
  Alcotest.(check int) "clean phase delivers" 3 !got;
  Alcotest.(check bool) "crashed" true (Topology.crash_node t 1);
  Alcotest.(check bool) "crash is idempotent" false (Topology.crash_node t 1);
  Alcotest.(check bool) "node reads down" false (Topology.is_node_up t 1);
  send 4;
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "transit node down blackholes" 3 !got;
  Alcotest.(check int) "drops counted" 4 (Topology.fault_drops t);
  Alcotest.(check bool) "restarted" true (Topology.restart_node t 1);
  send 2;
  Engine.run ~until:3.0 e;
  Alcotest.(check int) "resumed" 5 !got;
  Alcotest.(check int) "crash and restart counted once each" 2
    (Topology.fault_transitions t);
  Alcotest.(check int) "node_crash traced" 1
    (Trace.count trace Trace.Node_crash);
  Alcotest.(check int) "node_restart traced" 1
    (Trace.count trace Trace.Node_restart)

let test_fault_partition_heal () =
  let e = Engine.create () in
  let trace = Trace.memory () in
  let obs = Obs.create ~trace () in
  let t =
    Topology.kary_tree ~engine:e ~rng:(Rng.create 72) ~obs
      ~rate_bps:10_000.0 ~arity:2 ~depth:2 ()
  in
  Alcotest.(check int) "crossing cables cut" 4
    (Topology.partition t ~group:[ 3; 4; 5; 6 ]);
  Alcotest.(check bool) "inside-group cable survives" true
    (Topology.is_cable_up t 0);
  Alcotest.(check int) "re-partition cuts nothing new" 0
    (Topology.partition t ~group:[ 3; 4; 5; 6 ]);
  Alcotest.(check int) "heal restores them all" 4 (Topology.heal t);
  for c = 0 to Topology.cable_count t - 1 do
    Alcotest.(check bool) "cable up after heal" true (Topology.is_cable_up t c)
  done;
  Alcotest.(check int) "partition traced" 2
    (Trace.count trace Trace.Partition);
  Alcotest.(check int) "heal traced" 1 (Trace.count trace Trace.Heal)

(* Seeded fault schedules (flaps + churn) over a tree carrying real
   traffic must reproduce the exact same trace event sequence run to
   run — the determinism contract behind every fault experiment. *)
let run_faulty_tree seed =
  let e = Engine.create () in
  let trace = Trace.memory () in
  let obs = Obs.create ~trace () in
  let rng = Rng.create seed in
  let t =
    Topology.kary_tree ~engine:e ~rng ~obs ~rate_bps:50_000.0
      ~loss:(fun () -> Loss.bernoulli 0.05)
      ~arity:2 ~depth:2 ()
  in
  let schedule =
    Fault.flaps ~rng:(Rng.create (seed + 1)) ~rate_per_s:0.4
      ~mean_downtime:2.0 ~until:30.0 t
    @ Fault.churn ~rng:(Rng.create (seed + 2)) ~rate_per_s:0.4
        ~mean_downtime:2.0 ~until:30.0 t
  in
  Fault.install t schedule;
  let tr = Topology.transport t in
  let sent = ref 0 in
  let got = ref 0 in
  let f =
    tr.Transport.fanout ~rate_bps:50_000.0 ~label:"f" ~rng:(Rng.split rng)
      ~fetch:(fun () ->
        if !sent >= 300 then None
        else begin
          incr sent;
          Some (Packet.make ~size_bits:100 !sent)
        end)
      ()
  in
  for _ = 1 to 4 do
    ignore (f.Transport.f_subscribe ~loss:Loss.never (fun ~now:_ _ -> incr got))
  done;
  f.Transport.f_kick ();
  Engine.run ~until:30.0 e;
  let rendered =
    List.map
      (fun ev ->
        Printf.sprintf "%h %s %s %s %h" ev.Trace.time ev.Trace.src
          (Trace.kind_to_string ev.Trace.kind)
          ev.Trace.detail ev.Trace.value)
      (Trace.events trace)
  in
  (rendered, !got, Topology.fault_drops t)

let test_fault_schedule_deterministic () =
  let events_a, got_a, drops_a = run_faulty_tree 7 in
  let events_b, got_b, drops_b = run_faulty_tree 7 in
  Alcotest.(check bool) "schedule actually flipped something" true
    (List.exists
       (fun line ->
         let has sub =
           let rec find i =
             i + String.length sub <= String.length line
             && (String.sub line i (String.length sub) = sub || find (i + 1))
           in
           find 0
         in
         has " link_down " || has " node_crash ")
       events_a);
  Alcotest.(check bool) "faults destroyed traffic" true (drops_a > 0);
  Alcotest.(check (list string)) "identical trace sequences" events_a events_b;
  Alcotest.(check int) "identical deliveries" got_a got_b;
  Alcotest.(check int) "identical fault drops" drops_a drops_b;
  let events_c, _, _ = run_faulty_tree 8 in
  Alcotest.(check bool) "different seed diverges" true (events_a <> events_c)

(* Golden pin of the faulty-tree trace: the MD5 of every rendered
   event line, fault transitions and packet drops included. *)
let test_fault_trace_golden () =
  let events, _, _ = run_faulty_tree 7 in
  Alcotest.(check string) "trace digest pinned"
    "9db04bede74c1c4cbbf5b1b711b5d9c0"
    (Digest.to_hex (Digest.string (String.concat "\n" events)))

(* Golden pin of a single-hop multicast channel: three subscribers,
   one behind its own Bernoulli loss, a propagation delay, and obs
   set. The MD5 covers every rendered trace line, each delivery
   (subscriber, time, payload) and the channel's probes at the end. *)
let test_channel_trace_golden () =
  let e = Engine.create () in
  let trace = Trace.memory () in
  let obs = Obs.create ~trace () in
  let sent = ref 0 in
  let chan =
    Channel.create e ~rate_bps:2_000.0 ~delay:0.05 ~obs ~label:"mc"
      ~rng:(Rng.create 44)
      ~fetch:(fun () ->
        if !sent >= 40 then None
        else begin
          incr sent;
          Some (Packet.stamped ~id:!sent ~size_bits:(100 + (37 * !sent mod 250))
                  !sent)
        end)
      ()
  in
  let deliveries = ref [] in
  let hear name ~now v =
    deliveries := Printf.sprintf "%s %h %d" name now v :: !deliveries
  in
  ignore (Channel.subscribe chan (hear "a"));
  ignore (Channel.subscribe chan ~loss:(Loss.bernoulli 0.3) (hear "b"));
  ignore (Channel.subscribe chan (hear "c"));
  Channel.kick chan;
  Engine.run ~until:3.0 e;
  let rendered =
    List.map
      (fun ev ->
        Printf.sprintf "%h %s %s %s %h %d" ev.Trace.time ev.Trace.src
          (Trace.kind_to_string ev.Trace.kind)
          ev.Trace.detail ev.Trace.value ev.Trace.packet)
      (Trace.events trace)
  in
  let probes = Softstate_obs.Metrics.to_json (Obs.metrics obs) ~now:3.0 in
  let lines = rendered @ List.rev !deliveries @ [ probes ] in
  Alcotest.(check string) "trace digest pinned"
    "f16d7b929f17e1d7def38c0b23df4c9e"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* [f_served] counts completed services, not fetches, and
   [f_utilisation] is completed busy time over elapsed time, on the
   single-hop channel and on a tree's root server alike. Each
   1000-bit packet takes 1 s at 1 kb/s. *)
let test_fanout_served_counts_completions () =
  let check name make =
    let e = Engine.create () in
    let tr = make e in
    let source =
      ref (List.init 2 (fun i -> Packet.make ~size_bits:1000 i))
    in
    let f =
      tr.Transport.fanout ~rate_bps:1000.0 ~label:"f" ~rng:(Rng.create 74)
        ~fetch:(drain_fetch source) ()
    in
    ignore (f.Transport.f_subscribe ~loss:Loss.never (fun ~now:_ _ -> ()));
    f.Transport.f_kick ();
    let at now served =
      Engine.run ~until:now e;
      Alcotest.(check int)
        (Printf.sprintf "%s served at %g" name now)
        served (f.Transport.f_served ());
      check_close 1e-12
        (Printf.sprintf "%s utilisation at %g" name now)
        (float_of_int served /. now)
        (f.Transport.f_utilisation ~now)
    in
    at 0.5 0;
    at 1.5 1;
    at 4.0 2
  in
  check "single-hop" (fun e -> Transport.single_hop e);
  check "tree" (fun e ->
      Topology.transport
        (Topology.kary_tree ~engine:e ~rng:(Rng.create 75)
           ~rate_bps:50_000.0 ~arity:2 ~depth:2 ()))

let test_fault_spec_roundtrip () =
  let specs =
    [ "cable:3@10-20"; "node:2@5-7.5"; "partition@100-300"; "flap:0.1:5";
      "churn:0.25:10" ]
  in
  List.iter
    (fun s ->
      match Fault.spec_of_string s with
      | Error e -> Alcotest.fail e
      | Ok spec ->
          Alcotest.(check string)
            (Printf.sprintf "roundtrip %s" s)
            s
            (Fault.spec_to_string spec))
    specs;
  (match Fault.specs_of_string "cable:0@1-2,churn:0.1:5" with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.spec_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ "cable:x@1-2"; "node:1@5-2"; "partition@-1-2"; "flap:0:1"; "nonsense" ]

(* A spec's cable and node ids are checked against the topology's
   counts, totally: star:3 has cables 0-2 and nodes 0-3. *)
let test_fault_spec_check () =
  let check s =
    match Fault.specs_of_string s with
    | Error e -> Alcotest.fail e
    | Ok specs -> Fault.check ~nodes:4 ~cables:3 specs
  in
  Alcotest.(check (result unit string)) "bad cable"
    (Error "no cable 99 of 3") (check "node:1@1-2,cable:99@10-20");
  Alcotest.(check (result unit string)) "bad node"
    (Error "no node 4 of 4") (check "cable:2@1-2,node:4@10-20");
  Alcotest.(check (result unit string)) "valid"
    (Ok ()) (check "cable:2@10-20,node:3@1-2,flap:0.1:5,partition@3-4")

(* ------------------------------------------------------------------ *)
(* The edge table against the per-edge reference model *)

type overlay_case = {
  shape :
    [ `Chain of int | `Random of int * float | `Tree of int * int | `Star ];
  seed : int;
  edge_loss : float;
  sizes : int list; (* bits, of the fanout's and the unicast's packets *)
  burst : int; (* packets sent into the outbox at once *)
  flips : (float * int * bool) list;
      (* time, element (cable [k], or node [-1 - k]), up *)
}

let show_case c =
  Printf.sprintf "%s seed=%d loss=%g sizes=[%s] burst=%d flips=[%s]"
    (match c.shape with
    | `Chain h -> Printf.sprintf "chain:%d" h
    | `Random (n, p) -> Printf.sprintf "random:%d:%g" n p
    | `Tree (a, d) -> Printf.sprintf "tree:%d:%d" a d
    | `Star -> "star:100")
    c.seed c.edge_loss
    (String.concat ";" (List.map string_of_int c.sizes))
    c.burst
    (String.concat ";"
       (List.map
          (fun (at, k, up) -> Printf.sprintf "%g:%d:%b" at k up)
          c.flips))

let gen_case =
  QCheck.Gen.(
    let* shape =
      oneof
        [ map (fun h -> `Chain h) (int_range 1 6);
          map2
            (fun n p -> `Random (n, p))
            (int_range 2 14) (float_range 0.05 0.4);
          map2 (fun a d -> `Tree (a, d)) (int_range 2 4) (int_range 1 3);
          return `Star ]
    in
    let* seed = int_bound 100_000 in
    let* edge_loss = oneof [ return 0.0; float_range 0.05 0.3 ] in
    let* sizes = list_size (int_range 1 320) (int_range 100 1500) in
    let* burst = int_range 0 600 in
    let* flips =
      list_size (int_range 0 12)
        (triple (float_range 0.0 12.0) (int_range (-120) 120) bool)
    in
    return { shape; seed; edge_loss; sizes; burst; flips })

(* One run of the three overlays a transport makes over the case's
   topology, through the edge table or the reference: every rendered
   trace line, then every delivery, substrate reading and subscriber
   loss count in the order they happened. *)
let run_overlays c ~reference =
  let e = Engine.create () in
  let lines = ref [] in
  let obs =
    Obs.create ~trace:(Trace.jsonl_writer (fun l -> lines := l :: !lines)) ()
  in
  let rng = Rng.create c.seed in
  let rate_bps = 10_000.0 in
  let loss () = Loss.bernoulli c.edge_loss in
  let topo =
    match c.shape with
    | `Chain hops -> Topology.chain ~engine:e ~rng ~obs ~loss ~rate_bps ~hops ()
    | `Random (nodes, edge_prob) ->
        Topology.random_graph ~engine:e ~rng ~obs ~loss ~rate_bps ~nodes
          ~edge_prob ()
    | `Tree (arity, depth) ->
        Topology.kary_tree ~engine:e ~rng ~obs ~loss ~rate_bps ~arity ~depth ()
    | `Star -> Topology.star ~engine:e ~rng ~obs ~loss ~rate_bps ~leaves:100 ()
  in
  let tr, substrate =
    if reference then
      let r = Edge_reference.create ~topo ~rng ~obs ~rate_bps ~loss in
      (Edge_reference.transport r, fun () -> Edge_reference.substrate r)
    else (Topology.transport topo, fun () -> Topology.substrate topo)
  in
  let log = ref [] in
  let note s = log := s :: !log in
  let hear name ~now v = note (Printf.sprintf "%s %h %d" name now v) in
  let show_substrate () =
    let s = substrate () in
    note
      (Printf.sprintf "substrate %d %d %d %d %d %d %d %d" s.Topology.s_injected
         s.s_blackholed_inject s.s_blackholed_deliver s.s_overflowed s.s_queued
         s.s_sent s.s_delivered s.s_dropped)
  in
  (* Faults flip while packets are in flight. *)
  List.iter
    (fun (at, k, up) ->
      Engine.schedule e ~after:at (fun _ ->
          ignore
            (if k >= 0 then
               Topology.set_cable topo (k mod Topology.cable_count topo) ~up
             else
               let v = (-1 - k) mod Topology.node_count topo in
               if up then Topology.restart_node topo v
               else Topology.crash_node topo v)))
    c.flips;
  List.iter
    (fun at -> Engine.schedule e ~after:at (fun _ -> show_substrate ()))
    [ 1.0; 3.5; 8.0 ];
  let packets () =
    ref
      (List.mapi
         (fun i size -> Packet.stamped ~id:(i + 1) ~size_bits:size (i + 1))
         c.sizes)
  in
  (* The root serves faster than an edge drains, so edge queues form;
     a subscriber adds three more from inside its callback. *)
  let f =
    tr.Transport.fanout ~rate_bps:(8.0 *. rate_bps) ~label:"f"
      ~rng:(Rng.create (c.seed + 1)) ~fetch:(drain_fetch (packets ())) ()
  in
  let heard = ref 0 in
  let subs = ref 0 in
  let subscribe ~loss name =
    incr subs;
    ignore (f.Transport.f_subscribe ~loss (hear name))
  in
  ignore
    (f.Transport.f_subscribe ~loss:Loss.never (fun ~now v ->
         hear "s0" ~now v;
         incr heard;
         if !heard mod 4 = 2 && !heard < 12 then
           subscribe ~loss:(Loss.bernoulli 0.3) (Printf.sprintf "late%d" !heard)));
  incr subs;
  for i = 1 to 4 do
    subscribe
      ~loss:(if i mod 2 = 0 then Loss.bernoulli 0.2 else Loss.never)
      (Printf.sprintf "s%d" i)
  done;
  let u =
    tr.Transport.unicast ~rate_bps:(2.0 *. rate_bps) ~label:"u"
      ~rng:(Rng.create (c.seed + 2)) ~fetch:(drain_fetch (packets ()))
      ~deliver:(hear "u") ()
  in
  (* A burst past the edge queue's 256 packets. *)
  let ob =
    tr.Transport.outbox ~rate_bps:(50.0 *. rate_bps) ~label:"o"
      ~rng:(Rng.create (c.seed + 3)) ~deliver:(hear "o") ()
  in
  f.Transport.f_kick ();
  u.Transport.u_kick ();
  Engine.schedule e ~after:0.5 (fun _ ->
      for i = 1 to c.burst do
        ignore
          (ob.Transport.o_send
             (Packet.stamped ~id:(10_000 + i)
                ~size_bits:(100 + (37 * i mod 900)) i))
      done);
  Engine.run ~until:15.0 e;
  show_substrate ();
  for sid = 0 to !subs - 1 do
    note
      (Printf.sprintf "losses %d %d" sid (f.Transport.f_receiver_losses sid))
  done;
  (List.rev !lines, List.rev !log)

let qcheck_edge_table_matches_reference =
  QCheck.Test.make ~name:"edge table matches per-edge reference" ~count:60
    (QCheck.make ~print:show_case gen_case)
    (fun c ->
      let lines, log = run_overlays c ~reference:false in
      let ref_lines, ref_log = run_overlays c ~reference:true in
      let rec first_diff i a b =
        match (a, b) with
        | [], [] -> None
        | x :: a, y :: b ->
            if String.equal x y then first_diff (i + 1) a b
            else Some (Printf.sprintf "%d: %s <> %s" i x y)
        | x :: _, [] -> Some (Printf.sprintf "%d: extra %s" i x)
        | [], y :: _ -> Some (Printf.sprintf "%d: missing %s" i y)
      in
      (match first_diff 0 lines ref_lines with
      | Some d -> QCheck.Test.fail_reportf "trace line %s" d
      | None -> ());
      (match first_diff 0 log ref_log with
      | Some d -> QCheck.Test.fail_reportf "delivery or counter %s" d
      | None -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Flat struct-of-arrays topology *)

module Flat = Net.Flat_topology

(* Sorted canonical cable list: endpoints low-high, pairs sorted. *)
let canon_cables endpoints count =
  List.sort compare
    (List.init count (fun i ->
         let a, b = endpoints i in
         (min a b, max a b)))

let flat_cables flat =
  canon_cables (Flat.cable_endpoints flat) (Flat.cable_count flat)

let test_flat_csr_adjacency () =
  let flat = Flat.random ~rng:(Rng.create 11) ~nodes:60 ~edge_prob:0.08 () in
  let n = Flat.node_count flat in
  (* degrees sum to twice the cable count *)
  let degsum = ref 0 in
  for u = 0 to n - 1 do
    degsum := !degsum + Flat.degree flat u
  done;
  Alcotest.(check int) "sum of degrees" (2 * Flat.cable_count flat) !degsum;
  let adj = Flat.adjacency flat in
  for u = 0 to n - 1 do
    Alcotest.(check int) "view degree" (Flat.degree flat u)
      (adj.Flat.off.(u + 1) - adj.Flat.off.(u));
    for k = 0 to Flat.degree flat u - 1 do
      let v = Flat.neighbor flat u k in
      Alcotest.(check int) "view neighbour" v adj.Flat.node.(adj.Flat.off.(u) + k);
      Alcotest.(check int) "view cable" (Flat.neighbor_cable flat u k)
        adj.Flat.cable.(adj.Flat.off.(u) + k);
      (* neighbour lists ascend (ties by cable keep it non-strict) *)
      if k > 0 then
        Alcotest.(check bool) "neighbours ascend" true
          (Flat.neighbor flat u (k - 1) <= v);
      (* the carrying cable really joins u and v *)
      let a, b = Flat.cable_endpoints flat (Flat.neighbor_cable flat u k) in
      Alcotest.(check bool) "cable joins the pair" true
        ((a, b) = (u, v) || (a, b) = (v, u));
      (* symmetry: u appears among v's neighbours *)
      let found = ref false in
      for j = 0 to Flat.degree flat v - 1 do
        if Flat.neighbor flat v j = u then found := true
      done;
      Alcotest.(check bool) "adjacency symmetric" true !found
    done
  done

let test_flat_random_deterministic () =
  let build seed =
    flat_cables (Flat.random ~rng:(Rng.create seed) ~nodes:200 ~edge_prob:0.03 ())
  in
  Alcotest.(check (list (pair int int))) "same seed, same graph"
    (build 5) (build 5);
  Alcotest.(check bool) "different seed diverges" true (build 5 <> build 6);
  (* spanning chain keeps it connected: every node reachable from 0 *)
  let flat = Flat.random ~rng:(Rng.create 5) ~nodes:200 ~edge_prob:0.03 () in
  for v = 0 to 199 do
    Alcotest.(check bool) "connected" true (Flat.dist flat ~src:0 ~dst:v >= 0)
  done

let test_flat_routing () =
  let flat = Flat.random ~rng:(Rng.create 3) ~nodes:40 ~edge_prob:0.12 () in
  let far = Flat.farthest flat ~src:0 in
  for v = 0 to Flat.node_count flat - 1 do
    let d = Flat.dist flat ~src:0 ~dst:v in
    Alcotest.(check bool) "farthest is farthest" true
      (d <= Flat.dist flat ~src:0 ~dst:far);
    if d = Flat.dist flat ~src:0 ~dst:far then
      Alcotest.(check bool) "farthest ties break to lowest id" true (far <= v)
  done;
  (* parent chains walk back to the source, one hop at a time *)
  let dst = Flat.farthest flat ~src:0 in
  let rec walk v steps =
    if v = 0 then steps
    else begin
      let p = Flat.route_parent flat ~src:0 v in
      Alcotest.(check int) "parent is one hop closer"
        (Flat.dist flat ~src:0 ~dst:v - 1)
        (Flat.dist flat ~src:0 ~dst:p);
      walk p (steps + 1)
    end
  in
  Alcotest.(check int) "parent chain length" (Flat.dist flat ~src:0 ~dst)
    (walk dst 0)

let test_flat_fault_bits () =
  let flat = Flat.chain ~hops:4 () in
  Alcotest.(check bool) "cables start up" true (Flat.is_cable_up flat 2);
  Alcotest.(check bool) "nodes start up" true (Flat.is_node_up flat 3);
  Alcotest.(check bool) "all up at build" true (Flat.all_up flat);
  Alcotest.(check int) "no transitions yet" 0 (Flat.fault_transitions flat);
  Alcotest.(check bool) "cable down transitions" true
    (Flat.set_cable flat 2 ~up:false);
  Alcotest.(check bool) "repeat is idempotent" false
    (Flat.set_cable flat 2 ~up:false);
  Alcotest.(check bool) "cable reads down" false (Flat.is_cable_up flat 2);
  Alcotest.(check bool) "crash transitions" true (Flat.crash_node flat 3);
  Alcotest.(check bool) "crashed node reads down" false (Flat.is_node_up flat 3);
  Alcotest.(check bool) "restart transitions" true (Flat.restart_node flat 3);
  Alcotest.(check bool) "re-restart is idempotent" false
    (Flat.restart_node flat 3);
  (* idempotent repeats must not move the down count *)
  Alcotest.(check bool) "a cable still down" false (Flat.all_up flat);
  Alcotest.(check bool) "cable back up" true (Flat.set_cable flat 2 ~up:true);
  Alcotest.(check bool) "all up again" true (Flat.all_up flat);
  Alcotest.(check int) "four transitions counted" 4
    (Flat.fault_transitions flat);
  (* fault state is invisible to routing (static routes, as documented) *)
  ignore (Flat.set_cable flat 1 ~up:false);
  Alcotest.(check int) "routing is fault-blind" 4 (Flat.dist flat ~src:0 ~dst:4)

let () =
  Alcotest.run "softstate_net"
    [
      ( "loss",
        [
          Alcotest.test_case "never" `Quick test_loss_never;
          Alcotest.test_case "bernoulli rate" `Slow test_loss_bernoulli_rate;
          Alcotest.test_case "deterministic" `Quick test_loss_deterministic;
          Alcotest.test_case "gilbert-elliott mean" `Slow test_gilbert_elliott_mean;
          Alcotest.test_case "gilbert-elliott bursts" `Slow
            test_gilbert_elliott_burstiness;
          Alcotest.test_case "controlled" `Quick test_loss_controlled;
          Alcotest.test_case "validation" `Quick test_loss_validation;
          Alcotest.test_case "gilbert-elliott stationary combos" `Slow
            test_gilbert_elliott_stationary_combos;
        ] );
      ("packet", [ Alcotest.test_case "make/map" `Quick test_packet_make ]);
      ( "link",
        [
          Alcotest.test_case "service time" `Quick test_link_service_time;
          Alcotest.test_case "propagation delay" `Quick test_link_propagation_delay;
          Alcotest.test_case "loss counting" `Quick test_link_loss_counting;
          Alcotest.test_case "idle/kick" `Quick test_link_idles_and_kicks;
          Alcotest.test_case "on_served before loss" `Quick
            test_link_on_served_before_loss;
          Alcotest.test_case "utilisation" `Quick test_link_utilisation;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "fifo" `Quick test_pipe_fifo_delivery;
          Alcotest.test_case "overflow" `Quick test_pipe_overflow;
          Alcotest.test_case "idle/busy order" `Quick test_pipe_idle_busy_order;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fan out" `Quick test_channel_fan_out;
          Alcotest.test_case "late join" `Quick test_channel_late_join;
          Alcotest.test_case "subscribe in callback" `Quick
            test_channel_subscribe_in_callback;
        ] );
      ( "topology",
        [
          Alcotest.test_case "star structure" `Quick test_topology_star_structure;
          Alcotest.test_case "chain routing" `Quick test_topology_chain_routing;
          Alcotest.test_case "kary tree structure" `Quick
            test_topology_kary_tree_structure;
          Alcotest.test_case "random graph connected" `Quick
            test_topology_random_graph_connected;
          Alcotest.test_case "unicast over chain" `Quick
            test_transport_unicast_over_chain;
          Alcotest.test_case "outbox reverse path" `Quick
            test_transport_outbox_reverse_path;
          Alcotest.test_case "fanout subscribe in callback" `Quick
            test_transport_fanout_subscribe_in_callback;
          Alcotest.test_case "fanout over tree" `Quick
            test_transport_fanout_over_tree;
        ] );
      ( "flat topology",
        [
          Alcotest.test_case "csr adjacency" `Quick test_flat_csr_adjacency;
          Alcotest.test_case "random builder deterministic" `Quick
            test_flat_random_deterministic;
          Alcotest.test_case "routing" `Quick test_flat_routing;
          Alcotest.test_case "fault bits" `Quick test_flat_fault_bits;
        ] );
      ( "fault",
        [
          Alcotest.test_case "link down/up" `Quick test_fault_link_down_up;
          Alcotest.test_case "node crash/restart" `Quick
            test_fault_node_crash_restart;
          Alcotest.test_case "partition/heal" `Quick test_fault_partition_heal;
          Alcotest.test_case "seeded schedule deterministic" `Quick
            test_fault_schedule_deterministic;
          Alcotest.test_case "golden trace digest" `Quick
            test_fault_trace_golden;
          Alcotest.test_case "spec roundtrip" `Quick test_fault_spec_roundtrip;
          Alcotest.test_case "spec checked against topology" `Quick
            test_fault_spec_check;
          Alcotest.test_case "channel golden trace" `Quick
            test_channel_trace_golden;
          Alcotest.test_case "fanout served counts completions" `Quick
            test_fanout_served_counts_completions;
          QCheck_alcotest.to_alcotest qcheck_edge_table_matches_reference;
        ] );
    ]
