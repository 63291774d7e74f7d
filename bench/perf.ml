(* Performance proof suite (BENCH_perf.json).

   Three measurements back the calendar overhaul and the domain
   fan-out:
   - timer-storm: the soft-state calendar access pattern (insert a
     refresh timer, cancel most before they fire, pop the rest) on the
     current Softstate_util.Heap versus a verbatim copy of the seed's
     boxed-slot heap, measured in the same process — so the reported
     speedup is machine-independent and CI can gate on it;
   - an end-to-end fig5-style experiment run (simulated seconds and
     engine events per wall second);
   - a 16-replication sweep with --jobs 1 versus --jobs 4 (wall
     clock; on a single-core container the two are expected to tie).

   Quick mode (PERF_QUICK=1) shrinks the workloads for CI and checks
   the measured timer-storm speedup against the committed
   BENCH_perf.json baseline, failing on a >30% regression. *)

module Rng = Softstate_util.Rng
module Heap = Softstate_util.Heap
module E = Softstate_core.Experiment
module Engine = Softstate_sim.Engine
module Json = Softstate_obs.Json
module Net = Softstate_net

(* The seed repository's heap, kept verbatim as the baseline: boxed
   ['a slot option] cells, eager O(log n) removal. *)
module Ref_heap = struct
  type handle = { mutable index : int }
  type 'a slot = { key : float; seq : int; value : 'a; handle : handle }

  type 'a t = {
    mutable slots : 'a slot option array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create ?(initial_capacity = 64) () =
    { slots = Array.make (max 1 initial_capacity) None; size = 0;
      next_seq = 0 }

  let slot t i = match t.slots.(i) with Some s -> s | None -> assert false
  let precedes a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let set t i s =
    t.slots.(i) <- Some s;
    s.handle.index <- i

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      let si = slot t i and sp = slot t parent in
      if precedes si sp then begin
        set t parent si;
        set t i sp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < t.size && precedes (slot t left) (slot t !smallest) then
      smallest := left;
    if right < t.size && precedes (slot t right) (slot t !smallest) then
      smallest := right;
    if !smallest <> i then begin
      let si = slot t i and ss = slot t !smallest in
      set t !smallest si;
      set t i ss;
      sift_down t !smallest
    end

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 slots 0 t.size;
    t.slots <- slots

  let insert t ~key value =
    if t.size = Array.length t.slots then grow t;
    let handle = { index = t.size } in
    let s = { key; seq = t.next_seq; value; handle } in
    t.next_seq <- t.next_seq + 1;
    t.slots.(t.size) <- Some s;
    t.size <- t.size + 1;
    sift_up t (t.size - 1);
    handle

  let remove_at t i =
    let removed = slot t i in
    removed.handle.index <- -1;
    t.size <- t.size - 1;
    if i <> t.size then begin
      let last = slot t t.size in
      set t i last;
      t.slots.(t.size) <- None;
      sift_up t i;
      sift_down t i
    end
    else t.slots.(t.size) <- None;
    removed

  let pop t =
    if t.size = 0 then None
    else
      let s = remove_at t 0 in
      Some (s.key, s.value)

  let remove t h =
    if h.index < 0 then false
    else begin
      ignore (remove_at t h.index);
      true
    end
end

let quick () = Sys.getenv_opt "PERF_QUICK" <> None
let wall () = Unix.gettimeofday ()

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* The timer-storm pattern, parameterised over a heap implementation:
   the soft-state expiry-timer access sequence. Each of [resident]
   live records keeps one pending expiry timer ~20-40 s out. Every
   round, [batch] announcements arrive: each cancels the target
   record's pending timer and schedules a replacement further out —
   cancel + reinsert of far-future deadlines is the dominant calendar
   traffic. Then the clock advances 1 s and the (much rarer) genuine
   expiries are popped, each re-arming its record. Counts one op per
   insert, cancel and pop; both heaps see the identical RNG-driven
   sequence, so op counts must agree. *)
let storm ~rounds ~batch ~resident ~insert ~cancel ~pop =
  let g = Rng.create 42 in
  let now = ref 0.0 in
  let ops = ref 0 in
  let deadline () = !now +. 20.0 +. (20.0 *. Rng.float g) in
  let pending = Array.make resident None in
  for i = 0 to resident - 1 do
    pending.(i) <- Some (insert (deadline ()) i)
  done;
  for _ = 1 to rounds do
    (* announcements: refresh a random record's expiry timer *)
    for _ = 1 to batch do
      let i = Rng.int g resident in
      (match pending.(i) with
      | Some h -> cancel h; incr ops
      | None -> ());
      pending.(i) <- Some (insert (deadline ()) i);
      incr ops
    done;
    now := !now +. 1.0;
    (* expiries: the record dies and is re-announced afresh *)
    let rec drain () =
      match pop !now with
      | Some i ->
          incr ops;
          pending.(i) <- Some (insert (deadline ()) i);
          incr ops;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  !ops

let storm_new ~rounds ~batch ~resident =
  let h = Heap.create () in
  storm ~rounds ~batch ~resident
    ~insert:(fun key v -> Heap.insert h ~key v)
    ~cancel:(fun handle -> ignore (Heap.remove h handle))
    ~pop:(fun limit ->
      match Heap.min_key h with
      | Some k when k <= limit -> (
          match Heap.pop h with Some (_, v) -> Some v | None -> None)
      | _ -> None)

let storm_ref ~rounds ~batch ~resident =
  let h = Ref_heap.create () in
  storm ~rounds ~batch ~resident
    ~insert:(fun key v -> Ref_heap.insert h ~key v)
    ~cancel:(fun handle -> ignore (Ref_heap.remove h handle))
    ~pop:(fun limit ->
      match h.Ref_heap.size with
      | 0 -> None
      | _ ->
          let s = Ref_heap.slot h 0 in
          if s.Ref_heap.key <= limit then
            match Ref_heap.pop h with Some (_, v) -> Some v | None -> None
          else None)

(* Topology fan-out: flood packets down a complete k-ary multicast
   tree with a subscriber at every non-root node — the hop-by-hop
   replication path that dominates large-group runs. Every packet
   crosses every cable once and is delivered to every receiver, so
   deliveries/s measures the per-hop overlay machinery. *)
let fanout_storm ~arity ~depth ~packets =
  let e = Engine.create () in
  let topo =
    Net.Topology.kary_tree ~engine:e ~rng:(Rng.create 17)
      ~rate_bps:1_000_000_000.0 ~arity ~depth ()
  in
  let tr = Net.Topology.transport topo in
  let sent = ref 0 in
  let delivered = ref 0 in
  let f =
    tr.Net.Transport.fanout ~rate_bps:1_000_000_000.0 ~label:"fan"
      ~rng:(Rng.create 18)
      ~fetch:(fun () ->
        if !sent >= packets then None
        else begin
          incr sent;
          Some (Net.Packet.make ~size_bits:1_000 !sent)
        end)
      ()
  in
  let receivers = Net.Topology.node_count topo - 1 in
  for _ = 1 to receivers do
    ignore
      (f.Net.Transport.f_subscribe ~loss:Net.Loss.never (fun ~now:_ _ ->
           incr delivered))
  done;
  f.Net.Transport.f_kick ();
  Engine.run e;
  assert (!delivered = packets * receivers);
  (receivers, !delivered)

(* Engine-level storm: periodic refresh timers ([Engine.every]) plus
   one-shot deaths, all on the one engine calendar; each death cancels
   its record's recurrence. *)
let engine_storm ~records =
  let e = Engine.create () in
  let g = Rng.create 7 in
  for _ = 1 to records do
    let stop =
      Engine.every e ~period:(5.0 +. Rng.float g) (fun _ -> ())
    in
    let lifetime = 20.0 +. (40.0 *. Rng.float g) in
    ignore
      (Engine.schedule e ~after:lifetime (fun _ -> ignore (stop ())))
  done;
  Engine.run ~until:120.0 e;
  Engine.events_fired e

let fig5_config =
  { E.default with
    E.duration = 4000.0;
    loss = E.Bernoulli 0.3;
    protocol = E.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 } }

let jobs = ref 4

(* The committed (full-mode) BENCH_perf.json also records the storm
   speedup at quick scale, so CI's quick run gates against a baseline
   of the same workload size. *)
let regression_check ~speedup ~words_per_node =
  match open_in "BENCH_perf.json" with
  | exception Sys_error _ ->
      print_endline "no committed BENCH_perf.json baseline; skipping gate"
  | ic ->
      let line = input_line ic in
      close_in ic;
      (match Json.parse_flat line with
      | Error _ -> print_endline "unparseable BENCH_perf.json; skipping gate"
      | Ok fields -> (
          (match Json.member "storm_speedup_quick" fields with
          | Some (Json.Number baseline) when baseline > 0.0 ->
              let floor = 0.7 *. baseline in
              Printf.printf
                "regression gate: speedup %.2fx vs baseline %.2fx (floor %.2fx)\n"
                speedup baseline floor;
              if speedup < floor then begin
                prerr_endline
                  "FAIL: timer-storm speedup regressed >30% vs baseline";
                exit 1
              end
          | _ ->
              print_endline "no storm_speedup_quick in baseline; skipping gate");
          (* memory gate: live words per node of the flat substrate at
             the quick workload. The build is seed-deterministic, so
             any growth is a real footprint regression, not noise. *)
          match Json.member "large_topo_words_per_node_quick" fields with
          | Some (Json.Number baseline) when baseline > 0.0 ->
              let ceiling = 1.3 *. baseline in
              Printf.printf
                "memory gate: %.1f words/node vs baseline %.1f (ceiling %.1f)\n"
                words_per_node baseline ceiling;
              if words_per_node > ceiling then begin
                prerr_endline
                  "FAIL: flat-topology words/node regressed >30% vs baseline";
                exit 1
              end
          | _ ->
              print_endline
                "no large_topo_words_per_node_quick in baseline; skipping gate"))

let run () =
  Tables.header "Performance suite (BENCH_perf.json)";
  let q = quick () in
  let rounds = if q then 60 else 400 in
  let batch = if q then 2_000 else 5_000 in
  Printf.printf "domains available: %d   jobs: %d   quick: %b\n"
    (Softstate_sim.Parallel.recommended_jobs ())
    !jobs q;

  (* 1. timer-storm micro benchmark, seed heap vs current heap *)
  let resident = if q then 50_000 else 200_000 in
  ignore (storm_ref ~rounds:4 ~batch:500 ~resident:2_000);
  ignore (storm_new ~rounds:4 ~batch:500 ~resident:2_000);
  let measure ~rounds ~batch ~resident =
    let ref_ops, ref_s = timed (fun () -> storm_ref ~rounds ~batch ~resident) in
    let new_ops, new_s = timed (fun () -> storm_new ~rounds ~batch ~resident) in
    assert (ref_ops = new_ops);
    let ref_rate = float_of_int ref_ops /. ref_s in
    let new_rate = float_of_int new_ops /. new_s in
    (ref_ops, ref_s, ref_rate, new_s, new_rate, new_rate /. ref_rate)
  in
  let ops, ref_s, ref_rate, new_s, new_rate, speedup =
    measure ~rounds ~batch ~resident
  in
  Printf.printf "timer-storm  seed heap  %10.0f ops/s  (%.3f s, %d ops)\n"
    ref_rate ref_s ops;
  Printf.printf "timer-storm  new heap   %10.0f ops/s  (%.3f s, %d ops)\n"
    new_rate new_s ops;
  Printf.printf "timer-storm  speedup    %10.2fx\n" speedup;
  (* quick-scale speedup: measured in full mode too, so the committed
     baseline carries the number CI's quick run gates against *)
  let speedup_quick =
    if q then speedup
    else begin
      let _, _, _, _, _, s =
        measure ~rounds:60 ~batch:2_000 ~resident:50_000
      in
      Printf.printf "timer-storm  speedup    %10.2fx (quick scale, for the CI gate)\n" s;
      s
    end
  in

  (* 2. engine timer storm (periodics + one-shots on the calendar) *)
  let records = if q then 2_000 else 10_000 in
  let fired, eng_s = timed (fun () -> engine_storm ~records) in
  let eng_rate = float_of_int fired /. eng_s in
  Printf.printf "engine storm %10.0f events/s  (%d events, %.3f s)\n"
    eng_rate fired eng_s;

  (* 3. end-to-end fig5-style run *)
  let cfg =
    if q then { fig5_config with E.duration = 800.0 } else fig5_config
  in
  let r, e2e_s = timed (fun () -> E.run cfg) in
  Printf.printf "fig5-style   %.0f sim-s in %.3f wall-s (%.0f sim-s/s, consist %.4f)\n"
    cfg.E.duration e2e_s
    (cfg.E.duration /. e2e_s)
    r.E.avg_consistency;

  (* 4. parallel replication sweep: 16 replications, jobs 1 vs N *)
  let reps = 16 in
  let sweep_cfg = { cfg with E.duration = (if q then 400.0 else 1500.0) } in
  let s1, wall1 =
    timed (fun () -> fst (E.run_many ~jobs:1 ~replications:reps sweep_cfg))
  in
  let domain_stats = ref None in
  let sn, walln =
    timed (fun () ->
        fst
          (E.run_many ~jobs:!jobs ~replications:reps
             ~domain_report:(fun s -> domain_stats := Some s)
             sweep_cfg))
  in
  let par_speedup = wall1 /. walln in
  Printf.printf "sweep        jobs 1: %.3f s   jobs %d: %.3f s   speedup %.2fx\n"
    wall1 !jobs walln par_speedup;
  (* per-domain attribution: a disappointing speedup is either skew
     (one domain's wall dwarfs the rest, balance -> 1) or a shared
     bottleneck (balanced domains that are all slow) *)
  let module PS = Softstate_sim.Parallel.Stats in
  (match !domain_stats with
  | None -> ()
  | Some st ->
      Array.iter
        (fun (d : PS.domain) ->
          Printf.printf "sweep        domain %d: %2d tasks  %.3f s\n"
            d.PS.index d.PS.tasks d.PS.wall_s)
        st.PS.domains;
      Printf.printf
        "sweep        balance %.2f of %d (busy-sum / slowest; %d = even)\n"
        (PS.balance st) st.PS.jobs st.PS.jobs);
  (* polymorphic [compare] treats nan as equal to itself *)
  if compare s1 sn <> 0 then begin
    prerr_endline "FAIL: summaries differ between jobs 1 and jobs N";
    exit 1
  end;
  Printf.printf "sweep        consistency %.4f +/- %.4f (identical at any job count)\n"
    s1.E.consistency_mean s1.E.consistency_ci95;

  (* 5. topology fan-out: k-ary multicast tree, >= 1k receivers *)
  let fan_arity = 4 and fan_depth = 5 in
  let fan_packets = if q then 100 else 500 in
  let (fan_receivers, fan_deliveries), fan_s =
    timed (fun () -> fanout_storm ~arity:fan_arity ~depth:fan_depth
                       ~packets:fan_packets)
  in
  let fan_rate = float_of_int fan_deliveries /. fan_s in
  Printf.printf
    "tree fan-out %10.0f deliveries/s  (%d-ary depth %d, %d receivers, %d pkts, %.3f s)\n"
    fan_rate fan_arity fan_depth fan_receivers fan_packets fan_s;

  (* 6. large-topo: the flat struct-of-arrays substrate at 10^5 nodes —
     build time, live heap (Gc-measured) and gossip contact throughput
     on a sparse random graph and a deep binary tree. Edge probability
     keeps the mean degree at 4 across scales. *)
  let module Flat = Net.Flat_topology in
  let module G = Softstate_core.Gossip in
  let live_words = Memprobe.live_words in
  let lt_measure build =
    let before = live_words () in
    let (flat : Flat.t), build_s = timed build in
    let delta = live_words () - before in
    let r, run_s =
      timed (fun () ->
          G.run
            { G.default with G.seed = 9; fanout = 2; max_rounds = 200 }
            (G.Mesh flat))
    in
    (flat, build_s, delta, r, run_s)
  in
  let lt_nodes = if q then 20_000 else 100_000 in
  let lt_prob = 4.0 /. float_of_int lt_nodes in
  let lt_random () =
    Flat.random ~rng:(Rng.create 5) ~nodes:lt_nodes ~edge_prob:lt_prob ()
  in
  let lt, lt_build_s, lt_live, lt_r, lt_run_s = lt_measure lt_random in
  let lt_wpn = float_of_int lt_live /. float_of_int lt_nodes in
  let lt_rate = float_of_int lt_r.G.transmissions /. lt_run_s in
  Printf.printf
    "large-topo   random:%d:%g  %d cables  build %.3f s  %.1f words/node\n"
    lt_nodes lt_prob (Flat.cable_count lt) lt_build_s lt_wpn;
  Printf.printf
    "large-topo   gossip %10.0f contacts/s  (%d rounds, %d infected, %.3f s)\n"
    lt_rate lt_r.G.rounds lt_r.G.infected lt_run_s;
  let tree_depth = if q then 13 else 16 in
  let tree, tree_build_s, tree_live, tree_r, tree_run_s =
    lt_measure (fun () -> Flat.kary_tree ~arity:2 ~depth:tree_depth ())
  in
  let tree_nodes = Flat.node_count tree in
  let tree_rate = float_of_int tree_r.G.transmissions /. tree_run_s in
  Printf.printf
    "large-topo   tree:2:%d  %d nodes  build %.3f s  %.1f words/node\n"
    tree_depth tree_nodes tree_build_s
    (float_of_int tree_live /. float_of_int tree_nodes);
  Printf.printf
    "large-topo   gossip %10.0f contacts/s  (%d rounds, %d infected, %.3f s)\n"
    tree_rate tree_r.G.rounds tree_r.G.infected tree_run_s;
  (* quick-scale words/node: measured in full mode too, so the
     committed baseline carries the number CI's quick run gates
     against (the build is seed-deterministic, so the full-mode and
     quick-mode measurements of this workload agree) *)
  let lt_wpn_quick =
    if q then lt_wpn
    else begin
      let before = live_words () in
      let flat = Flat.random ~rng:(Rng.create 5) ~nodes:20_000 ~edge_prob:(4.0 /. 20_000.0) () in
      let delta = live_words () - before in
      ignore (Flat.node_count flat);
      float_of_int delta /. 20_000.0
    end
  in

  if q then regression_check ~speedup ~words_per_node:lt_wpn_quick;

  let out = if q then "BENCH_perf_quick.json" else "BENCH_perf.json" in
  let oc = open_out out in
  output_string oc
    (Json.obj
       [ ("experiment", Json.string "perf");
         ("quick", Json.int (if q then 1 else 0));
         ("domains_available",
          Json.int (Softstate_sim.Parallel.recommended_jobs ()));
         ("storm_ops", Json.int ops);
         ("storm_ref_ops_per_s", Json.float ref_rate);
         ("storm_ops_per_s", Json.float new_rate);
         ("storm_speedup", Json.float speedup);
         ("storm_speedup_quick", Json.float speedup_quick);
         ("engine_storm_events", Json.int fired);
         ("engine_storm_events_per_s", Json.float eng_rate);
         ("fig5_sim_s", Json.float cfg.E.duration);
         ("fig5_wall_s", Json.float e2e_s);
         ("fig5_sim_s_per_wall_s", Json.float (cfg.E.duration /. e2e_s));
         ("fanout_tree_arity", Json.int fan_arity);
         ("fanout_tree_depth", Json.int fan_depth);
         ("fanout_receivers", Json.int fan_receivers);
         ("fanout_packets", Json.int fan_packets);
         ("fanout_deliveries", Json.int fan_deliveries);
         ("fanout_wall_s", Json.float fan_s);
         ("fanout_deliveries_per_s", Json.float fan_rate);
         ("sweep_replications", Json.int reps);
         ("sweep_jobs", Json.int !jobs);
         ("sweep_wall_jobs1_s", Json.float wall1);
         ("sweep_wall_jobsN_s", Json.float walln);
         ("sweep_speedup", Json.float par_speedup);
         ("sweep_domain_tasks",
          Json.list
            (match !domain_stats with
            | None -> []
            | Some st ->
                Array.to_list
                  (Array.map (fun (d : PS.domain) -> Json.int d.PS.tasks)
                     st.PS.domains)));
         ("sweep_domain_wall_s",
          Json.list
            (match !domain_stats with
            | None -> []
            | Some st ->
                Array.to_list
                  (Array.map (fun (d : PS.domain) -> Json.float d.PS.wall_s)
                     st.PS.domains)));
         ("sweep_balance",
          Json.float
            (match !domain_stats with
            | None -> nan
            | Some st -> PS.balance st));
         ("sweep_mode",
          Json.string
            (match !domain_stats with
            | None -> "unknown"
            | Some st -> PS.mode_name st.PS.mode));
         ("large_topo_nodes", Json.int lt_nodes);
         ("large_topo_edge_prob", Json.float lt_prob);
         ("large_topo_cables", Json.int (Flat.cable_count lt));
         ("large_topo_build_s", Json.float lt_build_s);
         ("large_topo_live_words", Json.int lt_live);
         ("large_topo_words_per_node", Json.float lt_wpn);
         ("large_topo_words_per_node_quick", Json.float lt_wpn_quick);
         ("large_topo_gossip_rounds", Json.int lt_r.G.rounds);
         ("large_topo_gossip_contacts", Json.int lt_r.G.transmissions);
         ("large_topo_contacts_per_s", Json.float lt_rate);
         ("tree_topo_depth", Json.int tree_depth);
         ("tree_topo_nodes", Json.int tree_nodes);
         ("tree_topo_build_s", Json.float tree_build_s);
         ("tree_topo_live_words", Json.int tree_live);
         ("tree_topo_contacts_per_s", Json.float tree_rate) ]);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out
