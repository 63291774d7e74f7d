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
    pattern;
  Loss.reset l;
  Alcotest.(check bool) "reset phase" false (Loss.drop l g)

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
  let q = Packet.map String.length p in
  Alcotest.(check int) "map" 1 q.Packet.payload;
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
      ~deliver:(fun ~now payload -> delivered := (now, payload) :: !delivered)
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

let test_link_set_rate () =
  let e = Engine.create () in
  let link, delivered =
    make_drain_link e
      [ Packet.make ~size_bits:1000 "a"; Packet.make ~size_bits:1000 "b" ]
      ~rate:1000.0
  in
  Link.kick link;
  (* double the rate while the first packet is in service: it keeps
     its old service time, the second uses the new rate *)
  Engine.schedule e ~after:0.1 (fun _ -> Link.set_rate link 2000.0);
  Engine.run e;
  match List.rev !delivered with
  | [ (t1, _); (t2, _) ] ->
      check_close 1e-9 "first unchanged" 1.0 t1;
      check_close 1e-9 "second at new rate" 1.5 t2
  | _ -> Alcotest.fail "wrong deliveries"

(* ------------------------------------------------------------------ *)
(* Pipe *)

let test_pipe_fifo_delivery () =
  let e = Engine.create () in
  let delivered = ref [] in
  let pipe =
    Pipe.create e ~rate_bps:1000.0 ~rng:(Rng.create 13)
      ~deliver:(fun ~now:_ x -> delivered := x :: !delivered)
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
      ~deliver:(fun ~now x -> delivered := (x, now) :: !delivered)
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

let test_channel_unsubscribe () =
  let e = Engine.create () in
  let source = ref (List.init 10 (fun i -> Packet.make ~size_bits:10 i)) in
  let chan =
    Channel.create e ~rate_bps:10_000.0 ~rng:(Rng.create 16)
      ~fetch:(fun () ->
        match !source with
        | [] -> None
        | p :: rest ->
            source := rest;
            Some p)
      ()
  in
  let got = ref 0 in
  let sub = Channel.subscribe chan (fun ~now:_ _ -> incr got) in
  Alcotest.(check int) "one subscriber" 1 (Channel.subscriber_count chan);
  Channel.unsubscribe chan sub;
  Channel.kick chan;
  Engine.run e;
  Alcotest.(check int) "no deliveries" 0 !got;
  Alcotest.(check int) "zero subscribers" 0 (Channel.subscriber_count chan)

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
(* Channel snapshot semantics: unsubscribing from inside a delivery
   callback must not skip or double-deliver the packet being fanned
   out — the subscriber set for a packet is fixed when its service
   completes. *)

let test_channel_unsubscribe_in_callback () =
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
  let b_id = ref (-1) and c_id = ref (-1) in
  let _a = Channel.subscribe chan (fun ~now:_ v -> got_a := v :: !got_a) in
  b_id :=
    Channel.subscribe chan (fun ~now:_ v ->
        got_b := v :: !got_b;
        if v = 0 then begin
          (* drop ourselves AND the not-yet-served subscriber c *)
          Channel.unsubscribe chan !b_id;
          Channel.unsubscribe chan !c_id
        end);
  c_id := Channel.subscribe chan (fun ~now:_ v -> got_c := v :: !got_c);
  Channel.kick chan;
  Engine.run e;
  Alcotest.(check (list int)) "survivor sees every packet" [ 0; 1; 2; 3; 4 ]
    (List.rev !got_a);
  Alcotest.(check (list int)) "self-unsubscriber got the full packet" [ 0 ]
    (List.rev !got_b);
  Alcotest.(check (list int))
    "later subscriber not skipped on the in-flight packet" [ 0 ]
    (List.rev !got_c);
  Alcotest.(check int) "only the survivor remains" 1
    (Channel.subscriber_count chan)

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

(* Snapshot semantics of a fan-out hop: a subscriber removed by an
   earlier callback at the same node misses the packet being walked,
   and one added by a callback hears only later packets. *)
let test_transport_fanout_unsubscribe_in_callback () =
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
  (* sids alternate between the two leaves: 0 and 2 share a node *)
  let counts = Array.make 5 0 in
  let hear i ~now:_ _ = counts.(i) <- counts.(i) + 1 in
  let first = ref true in
  let sid0 =
    f.Transport.f_subscribe ~loss:Loss.never (fun ~now p ->
        hear 0 ~now p;
        if !first then begin
          first := false;
          f.Transport.f_unsubscribe 2;
          ignore (f.Transport.f_subscribe ~loss:Loss.never (hear 4))
        end)
  in
  for i = 1 to 3 do
    Alcotest.(check int) "sids in order" i
      (f.Transport.f_subscribe ~loss:Loss.never (hear i))
  done;
  Alcotest.(check int) "first sid" 0 sid0;
  f.Transport.f_kick ();
  Engine.run e;
  Alcotest.(check (array int)) "deliveries per sid" [| 3; 3; 0; 3; 2 |] counts;
  Alcotest.(check int) "subscribers left" 4 (f.Transport.f_subscriber_count ())

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
  for u = 0 to n - 1 do
    for k = 0 to Flat.degree flat u - 1 do
      let v = Flat.neighbor flat u k in
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
  Alcotest.(check bool) "cable back up" true (Flat.set_cable flat 2 ~up:true);
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
          Alcotest.test_case "set_rate" `Quick test_link_set_rate;
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
          Alcotest.test_case "unsubscribe" `Quick test_channel_unsubscribe;
          Alcotest.test_case "late join" `Quick test_channel_late_join;
          Alcotest.test_case "unsubscribe in callback" `Quick
            test_channel_unsubscribe_in_callback;
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
          Alcotest.test_case "fanout unsubscribe in callback" `Quick
            test_transport_fanout_unsubscribe_in_callback;
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
        ] );
    ]
