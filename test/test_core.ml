(* Tests for the soft-state core: data model, consistency metric,
   protocol variants, and agreement with the analytic model. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Core = Softstate_core
module Record = Core.Record
module Table = Core.Table
module Consistency = Core.Consistency
module Workload = Core.Workload
module Base = Core.Base
module Experiment = Core.Experiment
module Q = Softstate_queueing.Open_loop

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Record / Table *)

module Int_map = Map.Make (Int)

let test_record_touch () =
  let r = Record.make ~key:1 ~now:10.0 ~size_bits:100 in
  Alcotest.(check int) "version 0" 0 r.Record.version;
  Alcotest.(check (float 0.0)) "born" 10.0 r.Record.born;
  Record.touch r ~now:20.0;
  Alcotest.(check int) "version 1" 1 r.Record.version;
  Alcotest.(check (float 0.0)) "born moves" 20.0 r.Record.born;
  r.Record.matching <- 3;
  Record.touch r ~now:30.0;
  Alcotest.(check int) "touch resets matching" 0 r.Record.matching

let test_table_insert_remove () =
  let t = Table.create () in
  let r = Record.make ~key:5 ~now:0.0 ~size_bits:10 in
  Table.insert t r;
  Alcotest.(check int) "live" 1 (Table.live_count t);
  Alcotest.(check bool) "mem" true (Table.mem t 5);
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Table.insert: key already live") (fun () ->
      Table.insert t (Record.make ~key:5 ~now:0.0 ~size_bits:10));
  (match Table.remove t 5 with
  | Some r' -> Alcotest.(check int) "same record" r.Record.key r'.Record.key
  | None -> Alcotest.fail "remove failed");
  Alcotest.(check int) "empty" 0 (Table.live_count t);
  Alcotest.(check bool) "remove absent" true (Table.remove t 5 = None)

let test_table_random_key () =
  let t = Table.create () in
  let g = Rng.create 1 in
  Alcotest.(check bool) "empty none" true (Table.random_key t g = None);
  for k = 0 to 9 do
    Table.insert t (Record.make ~key:k ~now:0.0 ~size_bits:10)
  done;
  let seen = Hashtbl.create 10 in
  for _ = 1 to 1000 do
    match Table.random_key t g with
    | Some k -> Hashtbl.replace seen k ()
    | None -> Alcotest.fail "no key"
  done;
  Alcotest.(check int) "all keys reachable" 10 (Hashtbl.length seen)

(* Model test: random insert/remove sequences against a reference
   dense key array with swap-remove — the slot order the table has
   always had, so every slot-addressed draw stays what it was. *)
let qcheck_table_model =
  QCheck.Test.make ~name:"table matches reference model" ~count:200
    QCheck.(
      pair small_nat (list_of_size Gen.(int_range 0 300) (pair bool (int_bound 40))))
    (fun (seed, ops) ->
      let t = Table.create () in
      let model = ref [||] in
      let model_slot k =
        let rec go i =
          if i = Array.length !model then None
          else if !model.(i) = k then Some i
          else go (i + 1)
        in
        go 0
      in
      let agree () =
        let live = Array.length !model in
        if Table.live_count t <> live then QCheck.Test.fail_report "live_count";
        for k = 0 to 40 do
          let slot = model_slot k in
          if Table.slot_of_key t k <> slot then
            QCheck.Test.fail_reportf "slot_of_key %d" k;
          if Table.mem t k <> (slot <> None) then QCheck.Test.fail_reportf "mem %d" k;
          match Table.find t k with
          | Some r when r.Record.key <> k || Some r.Record.slot <> slot ->
              QCheck.Test.fail_reportf "find %d" k
          | None when slot <> None -> QCheck.Test.fail_reportf "find %d" k
          | Some _ | None -> ()
        done;
        for i = -1 to live do
          let want = if i >= 0 && i < live then Some !model.(i) else None in
          match Table.record_at t i with
          | r -> if Some r.Record.key <> want then QCheck.Test.fail_reportf "record_at %d" i
          | exception Invalid_argument _ ->
              if want <> None then QCheck.Test.fail_reportf "record_at %d" i
        done;
        (* the same seeded generator draws the same keys *)
        let g_table = Rng.create seed and g_model = Rng.create seed in
        for _ = 1 to 5 do
          let want =
            if live = 0 then None else Some !model.(Rng.int g_model live)
          in
          if Table.random_key t g_table <> want then
            QCheck.Test.fail_report "random_key"
        done
      in
      List.iter
        (fun (insert, k) ->
          (if insert then
             match model_slot k with
             | None ->
                 Table.insert t (Record.make ~key:k ~now:0.0 ~size_bits:1);
                 model := Array.append !model [| k |]
             | Some _ -> (
                 match Table.insert t (Record.make ~key:k ~now:0.0 ~size_bits:1) with
                 | () -> QCheck.Test.fail_report "duplicate insert accepted"
                 | exception Invalid_argument _ -> ())
           else
             let removed = Table.remove t k in
             match model_slot k with
             | None ->
                 if removed <> None then QCheck.Test.fail_report "removed absent"
             | Some slot ->
                 (match removed with
                 | Some r when r.Record.key = k && r.Record.slot = -1 -> ()
                 | Some _ | None -> QCheck.Test.fail_reportf "remove %d" k);
                 let last = Array.length !model - 1 in
                 !model.(slot) <- !model.(last);
                 model := Array.sub !model 0 last);
          agree ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Consistency tracker *)


(* Model test of the open-addressing index: long insert/remove
   sequences over wide-ranging keys (negative, extreme, and multiples of
   2^20, which share their low bits), checked against a [Map] from key
   to slot and a dense key array with swap-remove. The sequences grow
   the index several times and remove from the middle of probe
   clusters, so backward-shift deletion has to keep every key
   reachable. *)
type table_op = Ins of int | Del of int | Del_live of int

let table_op_gen =
  QCheck.Gen.(
    let key =
      frequency
        [ (6, int_range (-5) 3000);
          (2, map (fun k -> k lsl 20) (int_range (-50) 50));
          (1, oneofl [ min_int; max_int; 0; -1 ]) ]
    in
    frequency
      [ (5, map (fun k -> Ins k) key);
        (1, map (fun k -> Del k) key);
        (3, map (fun n -> Del_live n) nat) ])

let qcheck_table_map_model =
  QCheck.Test.make ~name:"table index matches a map" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 1500) table_op_gen))
    (fun ops ->
      let t = Table.create () in
      let slots = ref Int_map.empty and dense = ref [||] in
      let check_key k =
        let want = Int_map.find_opt k !slots in
        if Table.slot_of_key t k <> want then
          QCheck.Test.fail_reportf "slot_of_key %d" k;
        if Table.mem t k <> (want <> None) then QCheck.Test.fail_reportf "mem %d" k;
        match (Table.find t k, want) with
        | Some r, Some slot when r.Record.key = k && r.Record.slot = slot -> ()
        | None, None -> ()
        | Some _, _ | None, Some _ -> QCheck.Test.fail_reportf "find %d" k
      in
      let check_all () =
        Int_map.iter (fun k _ -> check_key k) !slots;
        Array.iteri
          (fun slot k ->
            if (Table.record_at t slot).Record.key <> k then
              QCheck.Test.fail_reportf "record_at %d" slot)
          !dense
      in
      let remove k =
        let removed = Table.remove t k in
        match Int_map.find_opt k !slots with
        | None -> if removed <> None then QCheck.Test.fail_reportf "removed absent %d" k
        | Some slot ->
            (match removed with
            | Some r when r.Record.key = k && r.Record.slot = -1 -> ()
            | Some _ | None -> QCheck.Test.fail_reportf "remove %d" k);
            let last = Array.length !dense - 1 in
            let moved = !dense.(last) in
            !dense.(slot) <- moved;
            dense := Array.sub !dense 0 last;
            slots := Int_map.remove k !slots;
            if moved <> k then slots := Int_map.add moved slot !slots
      in
      List.iteri
        (fun i op ->
          let k =
            match op with
            | Ins k ->
                (match Table.insert t (Record.make ~key:k ~now:0.0 ~size_bits:1) with
                | () ->
                    if Int_map.mem k !slots then
                      QCheck.Test.fail_reportf "duplicate %d accepted" k;
                    slots := Int_map.add k (Array.length !dense) !slots;
                    dense := Array.append !dense [| k |]
                | exception Invalid_argument _ ->
                    if not (Int_map.mem k !slots) then
                      QCheck.Test.fail_reportf "insert %d refused" k);
                k
            | Del k -> remove k; k
            | Del_live n ->
                let live = Array.length !dense in
                let k = if live = 0 then n else !dense.(n mod live) in
                remove k;
                k
          in
          if Table.live_count t <> Array.length !dense then
            QCheck.Test.fail_report "live_count";
          check_key k;
          if i mod 64 = 0 then check_all ())
        ops;
      check_all ();
      true)
let test_tracker_counts () =
  let t = Consistency.create ~now:0.0 () in
  Consistency.on_birth t ~now:1.0;
  Consistency.on_birth t ~now:1.0;
  Alcotest.(check int) "live 2" 2 (Consistency.live t);
  Alcotest.(check (float 0.0)) "c=0 live unmatched" 0.0
    (Consistency.instantaneous t);
  Consistency.on_match t ~now:2.0;
  check_close 1e-9 "c=1/2" 0.5 (Consistency.instantaneous t);
  Consistency.on_death t ~now:3.0 ~matching:0;
  check_close 1e-9 "c=1 after unmatched death" 1.0 (Consistency.instantaneous t);
  Consistency.on_death t ~now:4.0 ~matching:1;
  Alcotest.(check int) "live 0" 0 (Consistency.live t)

let test_tracker_time_average () =
  let t = Consistency.create ~empty_policy:Consistency.Empty_is_zero ~now:0.0 () in
  (* starts at 0 (empty, zero policy); birth at t=0 keeps c=0; match at
     t=5 raises c to 1; at t=10 average = 0.5 *)
  Consistency.on_birth t ~now:0.0;
  Consistency.on_match t ~now:5.0;
  check_close 1e-9 "average" 0.5 (Consistency.average t ~now:10.0)

let test_tracker_empty_policies () =
  let mk policy =
    let t = Consistency.create ~empty_policy:policy ~now:0.0 () in
    Consistency.instantaneous t
  in
  check_close 0.0 "consistent" 1.0 (mk Consistency.Empty_is_consistent);
  check_close 0.0 "zero" 0.0 (mk Consistency.Empty_is_zero);
  (* hold-last keeps the last defined value *)
  let t = Consistency.create ~empty_policy:Consistency.Empty_holds_last ~now:0.0 () in
  Consistency.on_birth t ~now:1.0;
  Consistency.on_match t ~now:2.0;
  Consistency.on_death t ~now:3.0 ~matching:1;
  check_close 0.0 "held" 1.0 (Consistency.instantaneous t)

let test_tracker_update_breaks_match () =
  let t = Consistency.create ~now:0.0 () in
  Consistency.on_birth t ~now:0.0;
  Consistency.on_match t ~now:1.0;
  Consistency.on_update t ~now:2.0 ~matching:1;
  check_close 0.0 "update invalidates" 0.0 (Consistency.instantaneous t)

let test_tracker_latency_and_redundancy () =
  let t = Consistency.create ~now:0.0 () in
  Consistency.on_first_delivery t ~now:5.0 ~born:2.0;
  Consistency.on_first_delivery t ~now:9.0 ~born:2.0;
  check_close 1e-9 "mean latency" 5.0
    (Softstate_util.Stats.Welford.mean (Consistency.latency t));
  Consistency.on_transmission t ~redundant:false;
  Consistency.on_transmission t ~redundant:true;
  Consistency.on_transmission t ~redundant:true;
  check_close 1e-9 "redundancy" (2.0 /. 3.0) (Consistency.redundancy t)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_of_kbps () =
  let w = Workload.of_kbps ~lambda_kbps:15.0 ~size_bits:1000 () in
  check_close 1e-9 "records per second" 15.0 w.Workload.arrival_rate;
  check_close 1e-9 "bits per second" 15_000.0 (Workload.lambda_bps w)

let test_workload_interarrival_mean () =
  let w = Workload.create ~arrival_rate:10.0 ~size_bits:100 () in
  let g = Rng.create 2 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Workload.next_interarrival w g
  done;
  check_close 0.002 "mean gap" 0.1 (!sum /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Base *)

let make_base ?(death = Base.Per_service 0.5) ?(update_fraction = 0.0) engine =
  let workload =
    Workload.of_kbps ~update_fraction ~lambda_kbps:10.0 ~size_bits:1000 ()
  in
  let tracker = Consistency.create ~now:0.0 () in
  let base =
    Base.create ~engine ~rng:(Rng.create 3) ~workload ~death ~tracker ()
  in
  (base, tracker)

let test_base_arrivals_populate_table () =
  let engine = Engine.create () in
  let base, tracker = make_base engine in
  let arrivals = ref 0 in
  Base.set_hooks base ~on_arrival:(fun _ -> incr arrivals) ~on_death:(fun _ -> ());
  Base.start base;
  Engine.run ~until:100.0 engine;
  Alcotest.(check bool) "arrivals happened" true (!arrivals > 500);
  Alcotest.(check int) "tracker live = table live"
    (Table.live_count (Base.table base))
    (Consistency.live tracker)

let test_base_deliver_updates_tracker () =
  let engine = Engine.create () in
  let base, tracker = make_base engine in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> ());
  Base.start base;
  (* run until at least one record exists *)
  Engine.run ~until:1.0 engine;
  let r =
    match
      Table.fold (Base.table base) ~init:None ~f:(fun acc r ->
          match acc with Some _ -> acc | None -> Some r)
    with
    | Some r -> r
    | None -> Alcotest.fail "no record arrived"
  in
  Alcotest.(check bool) "not matching yet" false (Base.is_matching base ~receiver:0 r);
  let ann = Base.announce_of base ~seq:0 r in
  Base.deliver base ~now:1.5 ~receiver:0 ann;
  Alcotest.(check bool) "matching after delivery" true (Base.is_matching base ~receiver:0 r);
  Alcotest.(check int) "one matching" 1 (Consistency.matching tracker);
  (* stale duplicate is absorbed *)
  Base.deliver base ~now:1.6 ~receiver:0 ann;
  Alcotest.(check int) "still one matching" 1 (Consistency.matching tracker)

let test_base_stale_version_ignored () =
  let engine = Engine.create () in
  let base, _ = make_base engine in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> ());
  Base.start base;
  Engine.run ~until:1.0 engine;
  let r =
    match
      Table.fold (Base.table base) ~init:None ~f:(fun acc r ->
          match acc with Some _ -> acc | None -> Some r)
    with
    | Some r -> r
    | None -> Alcotest.fail "no record"
  in
  let old = Base.announce_of base ~seq:0 r in
  Record.touch r ~now:2.0;
  Base.deliver base ~now:2.5 ~receiver:0 old;
  Alcotest.(check bool) "old version does not match" false
    (Base.is_matching base ~receiver:0 r);
  let fresh = Base.announce_of base ~seq:1 r in
  Base.deliver base ~now:3.0 ~receiver:0 fresh;
  Alcotest.(check bool) "fresh version matches" true (Base.is_matching base ~receiver:0 r);
  (* a late stale copy cannot regress the receiver *)
  Base.deliver base ~now:3.5 ~receiver:0 old;
  Alcotest.(check bool) "no regression" true (Base.is_matching base ~receiver:0 r)

let test_base_death_draw () =
  let engine = Engine.create () in
  let base, tracker = make_base engine ~death:(Base.Per_service 1.0) in
  let deaths = ref 0 in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> incr deaths);
  Base.start base;
  Engine.run ~until:1.0 engine;
  let r =
    match
      Table.fold (Base.table base) ~init:None ~f:(fun acc r ->
          match acc with Some _ -> acc | None -> Some r)
    with
    | Some r -> r
    | None -> Alcotest.fail "no record"
  in
  Alcotest.(check bool) "p=1 always dies" true (Base.death_draw base ~now:2.0 r);
  Alcotest.(check int) "death hook fired" 1 !deaths;
  Alcotest.(check bool) "gone from table" false (Table.mem (Base.table base) r.Record.key);
  ignore tracker

let test_base_lifetime_expiry () =
  let engine = Engine.create () in
  let base, _ = make_base engine ~death:(Base.Lifetime_fixed 5.0) in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> ());
  Base.start base;
  Engine.run ~until:4.0 engine;
  let live_young = Table.live_count (Base.table base) in
  Alcotest.(check bool) "records alive before ttl" true (live_young > 0);
  (* death_draw never kills under lifetime death *)
  let r =
    match
      Table.fold (Base.table base) ~init:None ~f:(fun acc r ->
          match acc with Some _ -> acc | None -> Some r)
    with
    | Some r -> r
    | None -> Alcotest.fail "no record"
  in
  Alcotest.(check bool) "no per-service death" false
    (Base.death_draw base ~now:4.0 r);
  Engine.run ~until:200.0 engine;
  (* steady state: live ≈ rate × ttl = 10 × 5 = 50 *)
  let live = Table.live_count (Base.table base) in
  Alcotest.(check bool) "bounded live set" true (live > 20 && live < 100)

let test_base_updates () =
  let engine = Engine.create () in
  let base, _ = make_base engine ~update_fraction:1.0 ~death:(Base.Lifetime_fixed 1e9) in
  let updates = ref 0 and inserts = ref 0 in
  Base.set_hooks base
    ~on_arrival:(fun r -> if r.Record.version > 0 then incr updates else incr inserts)
    ~on_death:(fun _ -> ());
  Base.start base;
  Engine.run ~until:50.0 engine;
  (* first arrival inserts (empty table), the rest update *)
  Alcotest.(check int) "single insert" 1 !inserts;
  Alcotest.(check bool) "rest update" true (!updates > 100)

let test_base_kill () =
  let engine = Engine.create () in
  let base, tracker = make_base engine in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> ());
  Base.start base;
  Engine.run ~until:1.0 engine;
  let key =
    match
      Table.fold (Base.table base) ~init:None ~f:(fun acc r ->
          match acc with Some _ -> acc | None -> Some r.Record.key)
    with
    | Some k -> k
    | None -> Alcotest.fail "no record"
  in
  let live_before = Consistency.live tracker in
  Base.kill base ~now:1.5 key;
  Alcotest.(check int) "live decremented" (live_before - 1)
    (Consistency.live tracker);
  Base.kill base ~now:1.6 key (* idempotent *)

(* Model test for the per-record matching count: random arrivals,
   updates, current and stale deliveries, expiring advances and kills
   over R receivers, under both expiry disciplines and both kinds of
   death. After every operation each live record's count must equal
   the receivers that match it, and the counts of the live records
   must sum to the tracker's matched pairs. *)
type count_op =
  | Step  (* fire one event: an arrival, an update, an expiry or a death *)
  | Advance of float
  | Deliver of { receiver : int; pick : int; behind : int }
  | Serve of int  (* Base.death_draw, the per-service death *)
  | Kill of int

let count_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, return Step);
        (2, map (fun dt -> Advance dt) (float_bound_inclusive 2.0));
        ( 6,
          map3
            (fun receiver pick behind -> Deliver { receiver; pick; behind })
            (int_bound 7) nat (int_bound 2) );
        (1, map (fun pick -> Serve pick) nat);
        (1, map (fun pick -> Kill pick) nat) ])

let qcheck_matching_count =
  QCheck.Test.make ~name:"matching count model" ~count:300
    QCheck.(
      make
        Gen.(
          quad small_nat (int_range 1 8) (pair bool bool)
            (list_size (int_range 0 200) count_op_gen)))
    (fun (seed, receivers, (wheel, per_service), ops) ->
      let engine = Engine.create () in
      let workload =
        Workload.create ~update_fraction:0.5 ~arrival_rate:4.0 ~size_bits:100 ()
      in
      let tracker = Consistency.create ~receivers ~now:0.0 () in
      let expiry =
        if wheel then Base.Refresh_wheel { multiple = 1.5 }
        else Base.Refresh_timeout { multiple = 1.5; sweep_period = 0.5 }
      in
      let death =
        if per_service then Base.Per_service 0.3 else Base.Lifetime_fixed 3.0
      in
      let base =
        Base.create ~engine ~rng:(Rng.create seed) ~workload ~death ~receivers
          ~expiry ~tracker ()
      in
      let last_dead = ref None in
      Base.set_hooks base ~on_arrival:ignore ~on_death:(fun r ->
          last_dead := Some r);
      Base.start base;
      let table = Base.table base in
      let live_record pick =
        let live = Table.live_count table in
        if live = 0 then None else Some (Table.record_at table (pick mod live))
      in
      let check () =
        let sum = ref 0 in
        for slot = 0 to Table.live_count table - 1 do
          let r = Table.record_at table slot in
          let want = ref 0 in
          for receiver = 0 to receivers - 1 do
            if Base.is_matching base ~receiver r then incr want
          done;
          if r.Record.matching <> !want then
            QCheck.Test.fail_reportf "key %d: count %d, %d receivers match"
              r.Record.key r.Record.matching !want;
          sum := !sum + r.Record.matching
        done;
        if !sum <> Consistency.matching tracker then
          QCheck.Test.fail_reportf "counts sum to %d, tracker holds %d" !sum
            (Consistency.matching tracker)
      in
      List.iter
        (fun op ->
          let now = Engine.now engine in
          (match op with
          | Step -> ignore (Engine.step engine)
          | Advance dt -> Engine.run ~until:(now +. dt) engine
          | Deliver { receiver; pick; behind } -> (
              let receiver = receiver mod receivers in
              match live_record pick with
              | Some r ->
                  let version = max 0 (r.Record.version - behind) in
                  Base.deliver base ~now ~receiver
                    { Base.key = r.Record.key; version; seq = 0 }
              | None -> (
                  (* a dead key's announcement is absorbed *)
                  match !last_dead with
                  | Some r ->
                      Base.deliver base ~now ~receiver
                        { Base.key = r.Record.key; version = r.Record.version;
                          seq = 0 }
                  | None -> ()))
          | Serve pick -> (
              match live_record pick with
              | Some r -> ignore (Base.death_draw base ~now r)
              | None -> ())
          | Kill pick -> (
              match live_record pick with
              | Some r -> Base.kill base ~now r.Record.key
              | None -> ()));
          check ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Experiment: protocol end-to-end behaviour *)

let run_open_loop ?(seed = 1) ?(duration = 20_000.0) ~p_loss ~p_death ~mu () =
  Experiment.run
    { Experiment.default with
      Experiment.seed;
      duration;
      death = Base.Per_service p_death;
      loss = Experiment.Bernoulli p_loss;
      protocol = Experiment.Open_loop { mu_data_kbps = mu };
      empty_policy = Consistency.Empty_is_zero }

let test_open_loop_matches_analytic () =
  (* The headline validation: simulated open-loop consistency within a
     few points of the closed form, across several operating points. *)
  List.iter
    (fun (p_loss, p_death) ->
      let r = run_open_loop ~p_loss ~p_death ~mu:45.0 () in
      let analytic =
        Q.expected_consistency
          { Q.lambda = 15.0; mu_ch = 45.0; p_loss; p_death }
      in
      if abs_float (r.Experiment.avg_consistency -. analytic) > 0.05 then
        Alcotest.fail
          (Printf.sprintf "loss=%.2f death=%.2f: sim %.4f vs analytic %.4f"
             p_loss p_death r.Experiment.avg_consistency analytic))
    [ (0.1, 0.5); (0.2, 0.5); (0.3, 0.6); (0.05, 0.4); (0.5, 0.8) ]

let test_open_loop_redundancy_matches_share () =
  let r = run_open_loop ~p_loss:0.2 ~p_death:0.5 ~mu:45.0 () in
  let share =
    Q.consistent_share { Q.lambda = 15.0; mu_ch = 45.0; p_loss = 0.2; p_death = 0.5 }
  in
  check_close 0.02 "measured redundancy = analytic share" share
    r.Experiment.redundant_fraction

let test_open_loop_lossless_latency () =
  (* With no loss and a fast channel, records are delivered almost
     immediately. Under the Empty_is_zero policy the average is
     dominated by the near-empty system (rho = 15/(0.5*450) = 0.067),
     so it must sit near s*rho, not near 1 - the analytic formula's
     regime. *)
  let r = run_open_loop ~p_loss:0.0 ~p_death:0.5 ~mu:450.0 ~duration:2000.0 () in
  Alcotest.(check bool) "tiny latency" true (r.Experiment.latency_mean < 0.1);
  let analytic =
    Q.expected_consistency { Q.lambda = 15.0; mu_ch = 450.0; p_loss = 0.0; p_death = 0.5 }
  in
  check_close 0.02 "matches analytic small-rho regime" analytic
    r.Experiment.avg_consistency

let test_open_loop_deterministic_given_seed () =
  let a = run_open_loop ~seed:9 ~p_loss:0.2 ~p_death:0.5 ~mu:45.0 ~duration:500.0 () in
  let b = run_open_loop ~seed:9 ~p_loss:0.2 ~p_death:0.5 ~mu:45.0 ~duration:500.0 () in
  check_close 0.0 "same seed, same answer" a.Experiment.avg_consistency
    b.Experiment.avg_consistency;
  Alcotest.(check int) "same transmissions" a.Experiment.transmissions
    b.Experiment.transmissions;
  let c = run_open_loop ~seed:10 ~p_loss:0.2 ~p_death:0.5 ~mu:45.0 ~duration:500.0 () in
  Alcotest.(check bool) "different seed differs" true
    (a.Experiment.transmissions <> c.Experiment.transmissions)

let test_consistency_decreases_with_loss () =
  let c p_loss =
    (run_open_loop ~p_loss ~p_death:0.5 ~mu:45.0 ~duration:5000.0 ()).Experiment.avg_consistency
  in
  let c1 = c 0.05 and c2 = c 0.3 and c3 = c 0.6 in
  Alcotest.(check bool) "monotone-ish in loss" true (c1 > c2 && c2 > c3)

let two_queue_config ~mu_hot ~mu_cold ~p_loss =
  { Experiment.default with
    Experiment.duration = 10_000.0;
    death = Base.Lifetime_fixed 30.0;
    loss = Experiment.Bernoulli p_loss;
    protocol = Experiment.Two_queue { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold } }

(* Queue entries carry the record's generation: a record queued cold,
   reheated hot, served and re-queued cold is fetched once per valid
   enqueue while its stale cold entry still sits in the queue, and a
   record killed while queued is never fetched. [drain] fetches until
   the queues run dry without serving, so fetched records stay in
   service. *)
let test_two_queue_generations () =
  let engine = Engine.create () in
  let base, _ = make_base ~death:(Base.Lifetime_fixed 1e9) engine in
  (* a heavy hot weight makes stride pick the hot queue on pass ties *)
  let q =
    Core.Two_queue.create_queues ~base ~mu_hot_bps:1000.0 ~mu_cold_bps:1.0
      ~sched_rng:(Rng.create 5) ()
  in
  Base.start base;
  let table = Base.table base in
  while Table.live_count table < 2 do
    ignore (Engine.step engine)
  done;
  Alcotest.(check int) "two records" 2 (Table.live_count table);
  let ra = Table.record_at table 0 in
  let a = ra.Record.key and b = (Table.record_at table 1).Record.key in
  let now = Engine.now engine in
  let fetch () =
    Option.map
      (fun p -> p.Softstate_net.Packet.payload.Base.key)
      (Core.Two_queue.fetch_packet q)
  in
  let drain () =
    let rec go acc = match fetch () with Some k -> go (k :: acc) | None -> acc in
    List.sort Int.compare (go [])
  in
  let keys = Alcotest.(list int) in
  let serve k = Core.Two_queue.serve_completion q ~now k in
  let reheat k = Core.Two_queue.reheat q ~now k in
  Alcotest.check keys "arrivals fetched once each" [ a; b ] (drain ());
  Alcotest.(check bool) "no reheat in service" false (reheat b);
  serve a;
  serve b;
  Alcotest.(check bool) "reheat cold" true (reheat b);
  Alcotest.(check bool) "already hot" false (reheat b);
  Alcotest.(check (option int)) "hot first" (Some b) (fetch ());
  (* b's stale cold entry is still queued behind a's; serving each
     fetch at once, the cold queue still visits each record once per
     round *)
  serve b;
  let rec circulate n =
    if n = 0 then []
    else
      match fetch () with
      | Some k ->
          serve k;
          k :: circulate (n - 1)
      | None -> []
  in
  Alcotest.check keys "stale entry skipped" [ a; b; a; b ] (circulate 4);
  Alcotest.(check bool) "reheat again" true (reheat a);
  Base.kill base ~now a;
  Alcotest.(check bool) "killed" true (ra.Record.state = Record.Dead);
  Alcotest.check keys "killed while queued" [ b ] (drain ());
  Alcotest.(check bool) "dead not reheated" false (reheat a);
  serve a;
  Alcotest.check keys "dead stays out" [] (drain ())

(* A fetch resolves its record with no lookup and allocates only the
   scheduler's pick, the announcement, the packet and the returned
   option: 12 words. (It was 16 while the packet id was an optional
   argument, a [Some] cell, and the charged size a float box.) *)
let test_two_queue_fetch_allocation () =
  let engine = Engine.create () in
  let base, _ = make_base ~death:(Base.Lifetime_fixed 1e9) engine in
  let q =
    Core.Two_queue.create_queues ~base ~mu_hot_bps:28_800.0
      ~mu_cold_bps:7_200.0 ~sched_rng:(Rng.create 5) ()
  in
  Base.start base;
  while Table.live_count (Base.table base) < 100 do
    ignore (Engine.step engine)
  done;
  let now = Engine.now engine in
  let fetches = 10_000 and words = ref 0.0 in
  for _ = 1 to fetches do
    let before = Gc.minor_words () in
    let p = Core.Two_queue.fetch_packet q in
    words := !words +. (Gc.minor_words () -. before);
    match p with
    | Some p ->
        Core.Two_queue.serve_completion q ~now
          p.Softstate_net.Packet.payload.Base.key
    | None -> Alcotest.fail "queues ran dry"
  done;
  let per_fetch = !words /. float_of_int fetches in
  if per_fetch > 12.0 then
    Alcotest.failf "%.2f minor words per fetch (at most 12)" per_fetch

let test_two_queue_beats_open_loop () =
  (* Figure 5's claim: two-level scheduling with adequate hot
     bandwidth beats the single open-loop queue at equal total
     bandwidth. *)
  let tq = Experiment.run (two_queue_config ~mu_hot:20.0 ~mu_cold:25.0 ~p_loss:0.3) in
  let ol =
    Experiment.run
      { (two_queue_config ~mu_hot:20.0 ~mu_cold:25.0 ~p_loss:0.3) with
        Experiment.protocol = Experiment.Open_loop { mu_data_kbps = 45.0 } }
  in
  Alcotest.(check bool)
    (Printf.sprintf "two-queue %.3f > open-loop %.3f"
       tq.Experiment.avg_consistency ol.Experiment.avg_consistency)
    true
    (tq.Experiment.avg_consistency > ol.Experiment.avg_consistency)

let test_two_queue_starves_below_lambda () =
  (* Figure 5: consistency is poor while mu_hot < lambda and improves
     sharply beyond. *)
  let low = Experiment.run (two_queue_config ~mu_hot:5.0 ~mu_cold:40.0 ~p_loss:0.1) in
  let high = Experiment.run (two_queue_config ~mu_hot:25.0 ~mu_cold:20.0 ~p_loss:0.1) in
  Alcotest.(check bool) "knee at lambda" true
    (high.Experiment.avg_consistency -. low.Experiment.avg_consistency > 0.2)

let test_two_queue_hot_sends_once_per_record () =
  let r = Experiment.run (two_queue_config ~mu_hot:25.0 ~mu_cold:20.0 ~p_loss:0.0) in
  (* without updates and without NACKs every record passes the hot
     queue exactly once *)
  let expected_records = 15.0 *. 10_000.0 in
  check_close (0.05 *. expected_records) "hot sends = arrivals"
    expected_records
    (float_of_int r.Experiment.sent_hot)

let feedback_config ?(nack_bits = 1000) ?(fb_lossy = false) ~mu_hot ~mu_cold
    ~mu_fb ~p_loss () =
  { Experiment.default with
    Experiment.duration = 10_000.0;
    death = Base.Lifetime_fixed 30.0;
    loss = Experiment.Bernoulli p_loss;
    protocol =
      Experiment.Feedback
        { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold; mu_fb_kbps = mu_fb;
          nack_bits; fb_lossy } }

let test_feedback_improves_consistency_under_loss () =
  (* §5's headline: at high loss, feedback lifts consistency
     dramatically versus the same bandwidth open loop. *)
  let fb =
    Experiment.run (feedback_config ~mu_hot:27.0 ~mu_cold:7.0 ~mu_fb:11.0 ~p_loss:0.4 ())
  in
  let ol =
    Experiment.run
      { (feedback_config ~mu_hot:27.0 ~mu_cold:7.0 ~mu_fb:11.0 ~p_loss:0.4 ()) with
        Experiment.protocol = Experiment.Open_loop { mu_data_kbps = 45.0 } }
  in
  Alcotest.(check bool)
    (Printf.sprintf "feedback %.3f vs open loop %.3f"
       fb.Experiment.avg_consistency ol.Experiment.avg_consistency)
    true
    (fb.Experiment.avg_consistency > ol.Experiment.avg_consistency +. 0.1);
  Alcotest.(check bool) "nacks flowed" true (fb.Experiment.nacks_sent > 0);
  Alcotest.(check bool) "reheats happened" true (fb.Experiment.reheats > 0)

let test_feedback_collapse_when_fb_starves_data () =
  (* Figure 8: when feedback eats most of the bandwidth, data starves
     and consistency collapses. *)
  let good =
    Experiment.run (feedback_config ~mu_hot:25.0 ~mu_cold:9.0 ~mu_fb:11.0 ~p_loss:0.4 ())
  in
  let collapsed =
    Experiment.run (feedback_config ~mu_hot:9.0 ~mu_cold:4.0 ~mu_fb:32.0 ~p_loss:0.4 ())
  in
  Alcotest.(check bool) "collapse" true
    (good.Experiment.avg_consistency -. collapsed.Experiment.avg_consistency
    > 0.3)

let test_feedback_no_loss_no_nacks () =
  let r =
    Experiment.run (feedback_config ~mu_hot:25.0 ~mu_cold:9.0 ~mu_fb:11.0 ~p_loss:0.0 ())
  in
  Alcotest.(check int) "no nacks without loss" 0 r.Experiment.nacks_sent;
  Alcotest.(check bool) "near-perfect consistency" true
    (r.Experiment.avg_consistency > 0.97)

let test_feedback_lossy_channel_still_helps () =
  let fb_lossless =
    Experiment.run (feedback_config ~mu_hot:27.0 ~mu_cold:7.0 ~mu_fb:11.0 ~p_loss:0.4 ())
  in
  let fb_lossy =
    Experiment.run
      (feedback_config ~fb_lossy:true ~mu_hot:27.0 ~mu_cold:7.0 ~mu_fb:11.0
         ~p_loss:0.4 ())
  in
  Alcotest.(check bool) "lossy feedback loses some nacks" true
    (fb_lossy.Experiment.nacks_delivered < fb_lossy.Experiment.nacks_sent);
  Alcotest.(check bool) "still better than nothing" true
    (fb_lossy.Experiment.avg_consistency
    > 0.8 *. fb_lossless.Experiment.avg_consistency)

let test_scheduler_choice_is_secondary () =
  (* §4 claims the sharing mechanism (lottery vs stride vs WFQ) is a
     policy detail; consistency should be nearly identical. *)
  let run sched =
    (Experiment.run
       { (two_queue_config ~mu_hot:20.0 ~mu_cold:25.0 ~p_loss:0.3) with
         Experiment.sched })
      .Experiment.avg_consistency
  in
  let module S = Softstate_sched.Scheduler in
  let results = List.map run [ S.Lottery; S.Stride; S.Wfq; S.Drr ] in
  let lo = List.fold_left Float.min 1.0 results in
  let hi = List.fold_left Float.max 0.0 results in
  Alcotest.(check bool)
    (Printf.sprintf "spread %.4f" (hi -. lo))
    true
    (hi -. lo < 0.03)

let test_gilbert_elliott_same_mean_same_consistency () =
  (* §3's claim: the metric depends only on the mean loss rate, not
     the pattern. Compare Bernoulli vs bursty Gilbert-Elliott at an
     equal 20% mean. *)
  let base = run_open_loop ~p_loss:0.2 ~p_death:0.5 ~mu:45.0 () in
  let bursty =
    Experiment.run
      { Experiment.default with
        Experiment.duration = 20_000.0;
        death = Base.Per_service 0.5;
        loss =
          Experiment.Gilbert_elliott
            { p_good_to_bad = 0.05; p_bad_to_good = 0.2; loss_good = 0.08;
              loss_bad = 0.68 };
        protocol = Experiment.Open_loop { mu_data_kbps = 45.0 };
        empty_policy = Consistency.Empty_is_zero }
  in
  (* verify the GE parameters indeed give a 20% mean *)
  check_close 1e-9 "GE mean is 20%" 0.2
    (Experiment.loss_mean
       (Experiment.Gilbert_elliott
          { p_good_to_bad = 0.05; p_bad_to_good = 0.2; loss_good = 0.08;
            loss_bad = 0.68 }));
  check_close 0.04 "pattern-insensitive consistency"
    base.Experiment.avg_consistency bursty.Experiment.avg_consistency

let test_receive_latency_hump () =
  (* Figure 6: receive latency first *rises* with cold bandwidth
     (near-zero cold only measures the lucky first transmissions -
     survivorship bias the paper calls out explicitly), peaks, then
     falls as cold retransmissions recover losses quickly. Delivery
     counts must rise monotonically with cold, confirming the bias. *)
  let run mu_cold =
    Experiment.run
      { (two_queue_config ~mu_hot:16.0 ~mu_cold ~p_loss:0.3) with
        Experiment.duration = 20_000.0 }
  in
  let tiny = run 0.5 and mid = run 16.0 and big = run 60.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rising edge: %.3f < %.3f" tiny.Experiment.latency_mean
       mid.Experiment.latency_mean)
    true
    (tiny.Experiment.latency_mean < mid.Experiment.latency_mean);
  Alcotest.(check bool)
    (Printf.sprintf "falling edge: %.3f > %.3f" mid.Experiment.latency_mean
       big.Experiment.latency_mean)
    true
    (mid.Experiment.latency_mean > big.Experiment.latency_mean);
  Alcotest.(check bool) "deliveries rise with cold" true
    (tiny.Experiment.deliveries < mid.Experiment.deliveries
    && mid.Experiment.deliveries < big.Experiment.deliveries)

(* ------------------------------------------------------------------ *)
(* Multicast *)

let multicast_config ?(receivers = 4) ?(suppression = true) ?(loss = 0.2) () =
  { Experiment.default with
    Experiment.duration = 2000.0;
    death = Base.Lifetime_fixed 30.0;
    loss = Experiment.Bernoulli loss;
    protocol =
      Experiment.Multicast
        { receivers; mu_hot_kbps = 28.0; mu_cold_kbps = 6.0;
          mu_fb_kbps = 11.0; nack_bits = 500; suppression; nack_slot = 0.5 } }

let test_multicast_lossless_group_consistent () =
  let r = Experiment.run (multicast_config ~receivers:8 ~loss:0.0 ()) in
  Alcotest.(check bool) "group near-fully consistent" true
    (r.Experiment.avg_consistency > 0.97);
  Alcotest.(check int) "no nacks without loss" 0 r.Experiment.nacks_wanted

let test_multicast_suppression_reduces_traffic () =
  let naive = Experiment.run (multicast_config ~receivers:16 ~suppression:false ()) in
  let damped = Experiment.run (multicast_config ~receivers:16 ~suppression:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "sent %d (damped) << %d (naive)"
       damped.Experiment.nacks_sent naive.Experiment.nacks_sent)
    true
    (damped.Experiment.nacks_sent * 2 < naive.Experiment.nacks_sent);
  Alcotest.(check bool) "suppressions counted" true
    (damped.Experiment.nacks_suppressed > 0);
  Alcotest.(check int) "naive suppresses nothing" 0
    naive.Experiment.nacks_suppressed;
  (* accounting: wanted = sent + suppressed, up to requests still
     sitting in their slot delay when the horizon hits *)
  let in_flight =
    damped.Experiment.nacks_wanted
    - (damped.Experiment.nacks_sent + damped.Experiment.nacks_suppressed)
  in
  Alcotest.(check bool)
    (Printf.sprintf "damped accounting (in flight %d)" in_flight)
    true
    (in_flight >= 0 && in_flight < 100);
  Alcotest.(check bool) "similar consistency" true
    (abs_float
       (damped.Experiment.avg_consistency -. naive.Experiment.avg_consistency)
    < 0.1)

let test_multicast_wanted_scales_with_group () =
  let want n =
    (Experiment.run (multicast_config ~receivers:n ())).Experiment.nacks_wanted
  in
  let w2 = want 2 and w8 = want 8 in
  Alcotest.(check bool)
    (Printf.sprintf "wanted scales: %d (n=2) vs %d (n=8)" w2 w8)
    true
    (w8 > 3 * w2)

let test_multicast_deterministic () =
  let a = Experiment.run (multicast_config ()) in
  let b = Experiment.run (multicast_config ()) in
  Alcotest.(check int) "same nack count" a.Experiment.nacks_sent
    b.Experiment.nacks_sent;
  Alcotest.(check (float 0.0)) "same consistency" a.Experiment.avg_consistency
    b.Experiment.avg_consistency

(* ------------------------------------------------------------------ *)
(* Soft-state expiry timers *)

let expiry_config multiple =
  { Experiment.default with
    Experiment.duration = 3000.0;
    death = Base.Lifetime_fixed 60.0;
    expiry = Base.Refresh_timeout { multiple; sweep_period = 1.0 };
    loss = Experiment.Bernoulli 0.2;
    protocol = Experiment.Open_loop { mu_data_kbps = 45.0 } }

let test_expiry_generous_multiple_is_harmless () =
  let with_timers = Experiment.run (expiry_config 8.0) in
  let without =
    Experiment.run { (expiry_config 8.0) with Experiment.expiry = Base.No_expiry }
  in
  Alcotest.(check bool)
    (Printf.sprintf "false expiries rare (%d)" with_timers.Experiment.false_expiries)
    true
    (with_timers.Experiment.false_expiries < 20);
  Alcotest.(check bool) "consistency unharmed" true
    (abs_float
       (with_timers.Experiment.avg_consistency -. without.Experiment.avg_consistency)
    < 0.01)

let test_expiry_tight_multiple_misfires () =
  let tight = Experiment.run (expiry_config 1.5) in
  let loose = Experiment.run (expiry_config 5.0) in
  Alcotest.(check bool)
    (Printf.sprintf "tight misfires more: %d vs %d"
       tight.Experiment.false_expiries loose.Experiment.false_expiries)
    true
    (tight.Experiment.false_expiries > 10 * max 1 loose.Experiment.false_expiries)

let test_expiry_collects_dead_state () =
  let r = Experiment.run (expiry_config 3.0) in
  Alcotest.(check bool)
    (Printf.sprintf "stale entries purged (%d)" r.Experiment.stale_purged)
    true
    (r.Experiment.stale_purged > 1000)

let test_expiry_disabled_counts_nothing () =
  let r =
    Experiment.run { (expiry_config 3.0) with Experiment.expiry = Base.No_expiry }
  in
  Alcotest.(check int) "no false expiries" 0 r.Experiment.false_expiries;
  Alcotest.(check int) "no stale purges" 0 r.Experiment.stale_purged

let test_expiry_codec_roundtrip () =
  let roundtrip e =
    match Base.expiry_of_string (Base.expiry_to_string e) with
    | Ok e' -> Alcotest.(check bool) (Base.expiry_to_string e) true (e = e')
    | Error m -> Alcotest.fail m
  in
  roundtrip Base.No_expiry;
  roundtrip (Base.Refresh_timeout { multiple = 3.5; sweep_period = 0.75 });
  roundtrip (Base.Refresh_wheel { multiple = 2.25 });
  (* the historical alias still parses *)
  (match Base.expiry_of_string "sweep:3:1" with
  | Ok (Base.Refresh_timeout { multiple = 3.0; sweep_period = 1.0 }) -> ()
  | _ -> Alcotest.fail "sweep: alias");
  List.iter
    (fun s ->
      match Base.expiry_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ " should not parse"))
    [ "bogus"; "refresh:1"; "wheel:"; "wheel:x"; "refresh:1:2:3"; "wheel:nan";
      "wheel:1"; "wheel:inf"; "refresh:3:nan"; "refresh:3:inf";
      "refresh:0.5:1"; "refresh:nan:1"; "refresh:3:0" ]

let test_death_codec_roundtrip () =
  List.iter
    (fun d ->
      match Base.death_of_string (Base.death_to_string d) with
      | Ok d' -> Alcotest.(check bool) (Base.death_to_string d) true (d = d')
      | Error m -> Alcotest.fail m)
    [ Base.Per_service 0.1; Base.Per_service 1.0; Base.Lifetime_fixed 30.0;
      Base.Lifetime_exp 12.5 ];
  List.iter
    (fun s ->
      match Base.death_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ " should not parse"))
    [ "service:nan"; "service:0"; "service:2"; "fixed:0"; "fixed:-1";
      "exp:nan"; "fixed:inf"; "exp:inf"; "service:inf"; "bogus"; "exp:";
      "fixed:1:2" ]

(* Deterministic micro-harness: a Base with a negligible arrival rate
   and effectively immortal records, fed hand-scripted deliveries, so
   wheel and sweep firing semantics can be pinned exactly. *)
let expiry_micro expiry script =
  let engine = Engine.create () in
  let tracker = Consistency.create ~now:0.0 () in
  let workload = Workload.create ~arrival_rate:1e-12 ~size_bits:1000 () in
  let base =
    Base.create ~engine ~rng:(Rng.create 7) ~workload
      ~death:(Base.Lifetime_fixed 1e9) ~expiry ~tracker ()
  in
  Base.set_hooks base ~on_arrival:(fun _ -> ()) ~on_death:(fun _ -> ());
  Base.start base;
  let insert key =
    let r = Record.make ~key ~now:(Engine.now engine) ~size_bits:1000 in
    Table.insert (Base.table base) r;
    Consistency.on_birth tracker ~now:(Engine.now engine);
    r
  in
  let deliver_at time key =
    Engine.schedule engine ~after:(time -. Engine.now engine) (fun engine ->
        match Table.find (Base.table base) key with
        | Some r ->
            Base.deliver base ~now:(Engine.now engine) ~receiver:0
              (Base.announce_of base ~seq:0 r)
        | None -> ())
  in
  script ~insert ~deliver_at ~engine ~base;
  base

let test_expiry_wheel_fires_at_deadline () =
  (* deliveries at t=0 and t=10 give gap=10; multiple=2 puts the
     deadline at t=30. The wheel expires at the deadline itself; the
     1 s sweep only notices at its first scan strictly past it
     (t=31) — both end with exactly one false expiry. *)
  let script ~insert ~deliver_at ~engine ~base:_ =
    let r = insert 1 in
    deliver_at 0.0 r.Record.key;
    deliver_at 10.0 r.Record.key;
    Engine.run ~until:40.0 engine
  in
  let wheel =
    expiry_micro (Base.Refresh_wheel { multiple = 2.0 }) script
  in
  let sweep =
    expiry_micro
      (Base.Refresh_timeout { multiple = 2.0; sweep_period = 1.0 })
      script
  in
  Alcotest.(check int) "wheel false expiry" 1 (Base.false_expiries wheel);
  Alcotest.(check int) "sweep false expiry" 1 (Base.false_expiries sweep);
  Alcotest.(check int) "wheel no stale" 0 (Base.stale_purged wheel);
  Alcotest.(check int) "sweep no stale" 0 (Base.stale_purged sweep);
  (* a refresh just before the wheel deadline pushes it back: same
     script plus a delivery at t=29.9 must not expire by t=35 *)
  let pushed =
    expiry_micro (Base.Refresh_wheel { multiple = 2.0 })
      (fun ~insert ~deliver_at ~engine ~base:_ ->
        let r = insert 1 in
        deliver_at 0.0 r.Record.key;
        deliver_at 10.0 r.Record.key;
        deliver_at 29.9 r.Record.key;
        Engine.run ~until:35.0 engine)
  in
  Alcotest.(check int) "pushed back" 0 (Base.false_expiries pushed)

let test_expiry_wheel_stale_purge () =
  (* once armed, a key killed at the sender has its armed copy
     reclaimed with the slot, and that reclaim is the stale purge; the
     timer still on the calendar fires later as a no-op. The sweep
     counts the same copy at the same reclaim. *)
  let script ~insert ~deliver_at ~engine ~base =
    let r = insert 1 in
    let key = r.Record.key in
    deliver_at 0.0 key;
    deliver_at 10.0 key;
    Engine.schedule engine ~after:15.0 (fun engine ->
        Base.kill base ~now:(Engine.now engine) key);
    Engine.run ~until:60.0 engine
  in
  let wheel = expiry_micro (Base.Refresh_wheel { multiple = 2.0 }) script in
  let sweep =
    expiry_micro
      (Base.Refresh_timeout { multiple = 2.0; sweep_period = 1.0 })
      script
  in
  Alcotest.(check int) "wheel stale purge" 1 (Base.stale_purged wheel);
  Alcotest.(check int) "sweep stale purge" 1 (Base.stale_purged sweep);
  Alcotest.(check int) "wheel no false" 0 (Base.false_expiries wheel);
  Alcotest.(check int) "sweep no false" 0 (Base.false_expiries sweep)

(* An explicit kill while the copy's wheel timer is really on the
   calendar (the micro-harness's records have no known death): the
   reclaim counts the purge, and the timer firing later adds nothing. *)
let test_expiry_wheel_kill_counts_once () =
  let base =
    expiry_micro (Base.Refresh_wheel { multiple = 2.0 })
      (fun ~insert ~deliver_at ~engine ~base ->
        let key = (insert 1).Record.key in
        deliver_at 0.0 key;
        deliver_at 10.0 key;
        Engine.run ~until:15.0 engine;
        Alcotest.(check int) "arrival tick and timer pending" 2
          (Engine.pending engine);
        Base.kill base ~now:(Engine.now engine) key;
        Alcotest.(check int) "purged at the kill" 1 (Base.stale_purged base);
        Engine.run ~until:60.0 engine;
        Alcotest.(check int) "the timer fired" 1 (Engine.pending engine))
  in
  Alcotest.(check int) "purged once" 1 (Base.stale_purged base);
  Alcotest.(check int) "no false expiry" 0 (Base.false_expiries base)

(* A wheel copy armed with a deadline at or past its key's known death
   (a fixed lifetime of 50 s) puts nothing on the calendar: the timer
   could only fire after the death. The reclaim at the death counts the
   copy once. A deadline before the death still arms a real timer. *)
let test_expiry_wheel_past_death () =
  let run multiple =
    let engine = Engine.create () in
    let tracker = Consistency.create ~now:0.0 () in
    let workload = Workload.create ~arrival_rate:1e-3 ~size_bits:1000 () in
    let base =
      Base.create ~engine ~rng:(Rng.create 7) ~workload
        ~death:(Base.Lifetime_fixed 50.0)
        ~expiry:(Base.Refresh_wheel { multiple }) ~tracker ()
    in
    Base.set_hooks base ~on_arrival:ignore ~on_death:ignore;
    Base.start base;
    while Table.live_count (Base.table base) = 0 do
      ignore (Engine.step engine)
    done;
    let r = Table.record_at (Base.table base) 0 in
    let born = Engine.now engine in
    let deliver now =
      Base.deliver base ~now ~receiver:0 (Base.announce_of base ~seq:0 r)
    in
    deliver born;
    let before = Engine.pending engine in
    (* gap 10: the deadline falls at born + 10 + 10 * multiple *)
    deliver (born +. 10.0);
    (engine, base, r.Record.key, born, Engine.pending engine - before)
  in
  let _, _, _, _, added = run 3.0 in
  Alcotest.(check int) "deadline before death: one timer" 1 added;
  let _, _, _, born, added = run 4.0 in
  Alcotest.(check bool) "the deadline lands on the death time" true
    (Float.equal (born +. 10.0 +. (4.0 *. (born +. 10.0 -. born))) (born +. 50.0));
  Alcotest.(check int) "deadline at death: no timer" 0 added;
  let engine, base, key, born, added = run 5.0 in
  Alcotest.(check int) "deadline past death: no timer" 0 added;
  Engine.run ~until:(born +. 49.0) engine;
  Alcotest.(check int) "nothing purged before the death" 0
    (Base.stale_purged base);
  Engine.run ~until:(born +. 51.0) engine;
  Alcotest.(check (option int)) "reclaimed at the death" None
    (Base.receiver_version base ~receiver:0 key);
  Alcotest.(check int) "counted at the reclaim" 1 (Base.stale_purged base);
  Engine.run ~until:(born +. 500.0) engine;
  Alcotest.(check int) "counted once" 1 (Base.stale_purged base);
  Alcotest.(check int) "no false expiry" 0 (Base.false_expiries base)

let test_expiry_sweep_reclaims_at_death () =
  (* A copy heard once has no gap estimate, so no sweep can expire it:
     the sender's death must reclaim it, without counting a purge. *)
  let sweep = Base.Refresh_timeout { multiple = 2.0; sweep_period = 1.0 } in
  let once =
    expiry_micro sweep (fun ~insert ~deliver_at ~engine ~base ->
        let key = (insert 1).Record.key in
        deliver_at 0.0 key;
        Engine.run ~until:5.0 engine;
        Base.kill base ~now:(Engine.now engine) key;
        Alcotest.(check (option int)) "once-heard copy reclaimed" None
          (Base.receiver_version base ~receiver:0 key);
        Engine.run ~until:60.0 engine)
  in
  Alcotest.(check int) "once-heard copy is no purge" 0 (Base.stale_purged once);
  Alcotest.(check int) "once-heard no false" 0 (Base.false_expiries once);
  (* heard twice, the copy has a gap estimate: its reclaim is the
     purge, counted at the kill rather than at a later scan *)
  let twice =
    expiry_micro sweep (fun ~insert ~deliver_at ~engine ~base ->
        let key = (insert 1).Record.key in
        deliver_at 0.0 key;
        deliver_at 10.0 key;
        Engine.run ~until:15.0 engine;
        Base.kill base ~now:(Engine.now engine) key;
        Alcotest.(check int) "purged at the kill" 1 (Base.stale_purged base);
        Alcotest.(check (option int)) "twice-heard copy reclaimed" None
          (Base.receiver_version base ~receiver:0 key);
        Engine.run ~until:60.0 engine)
  in
  Alcotest.(check int) "purged once" 1 (Base.stale_purged twice);
  Alcotest.(check int) "twice-heard no false" 0 (Base.false_expiries twice)

let test_expiry_wheel_vs_sweep_agreement () =
  (* same end-to-end experiment under both implementations: identical
     semantics up to observation timing, so the aggregate counters and
     consistency must agree closely (not exactly — the sweep observes
     expiries late, the wheel on time) *)
  let sweep = Experiment.run (expiry_config 3.0) in
  let wheel =
    Experiment.run
      { (expiry_config 3.0) with
        Experiment.expiry = Base.Refresh_wheel { multiple = 3.0 } }
  in
  Alcotest.(check bool)
    (Printf.sprintf "consistency close (%.4f vs %.4f)"
       wheel.Experiment.avg_consistency sweep.Experiment.avg_consistency)
    true
    (abs_float
       (wheel.Experiment.avg_consistency -. sweep.Experiment.avg_consistency)
    < 0.02);
  let ratio a b = float_of_int (max a 1) /. float_of_int (max b 1) in
  Alcotest.(check bool)
    (Printf.sprintf "stale purges same order (%d vs %d)"
       wheel.Experiment.stale_purged sweep.Experiment.stale_purged)
    true
    (ratio wheel.Experiment.stale_purged sweep.Experiment.stale_purged < 2.0
    && ratio sweep.Experiment.stale_purged wheel.Experiment.stale_purged < 2.0)

(* ------------------------------------------------------------------ *)
(* Parallel replication runner *)

let run_many_config =
  { Experiment.default with
    Experiment.duration = 400.0;
    loss = Experiment.Bernoulli 0.3;
    protocol = Experiment.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 } }

let test_run_many_deterministic_across_jobs () =
  (* the fan-out contract: the summary (and every per-replication
     result) is a function of the config alone, not of the domain
     count. [compare] rather than [<>]: nan = nan under compare. *)
  let s1, r1 = Experiment.run_many ~jobs:1 ~replications:6 run_many_config in
  let s4, r4 = Experiment.run_many ~jobs:4 ~replications:6 run_many_config in
  Alcotest.(check bool) "summaries byte-identical" true (compare s1 s4 = 0);
  Alcotest.(check bool) "per-replication results identical" true
    (compare r1 r4 = 0);
  Alcotest.(check int) "replication count" 6 s1.Experiment.replications

let test_run_many_reports_spread () =
  let s, results = Experiment.run_many ~jobs:1 ~replications:5 run_many_config in
  Alcotest.(check int) "five results" 5 (Array.length results);
  Alcotest.(check bool) "mean in [0,1]" true
    (s.Experiment.consistency_mean >= 0.0 && s.Experiment.consistency_mean <= 1.0);
  Alcotest.(check bool) "nonzero ci from independent seeds" true
    (s.Experiment.consistency_ci95 > 0.0);
  (* replications use distinct derived seeds, so runs differ *)
  Alcotest.(check bool) "replications not clones" true
    (results.(0).Experiment.avg_consistency
    <> results.(1).Experiment.avg_consistency);
  (* and the summary mean is the mean of the per-replication results *)
  let mean =
    Array.fold_left
      (fun acc r -> acc +. r.Experiment.avg_consistency)
      0.0 results
    /. 5.0
  in
  Alcotest.(check (float 1e-9)) "summary mean matches results" mean
    s.Experiment.consistency_mean

let test_run_many_domain_stats () =
  (* the ?domain_report hook: stats partition the work exactly, for
     both the parallel and the sequential paths *)
  let module PS = Softstate_sim.Parallel.Stats in
  let grab jobs =
    let stats = ref None in
    let _ =
      Experiment.run_many ~jobs ~replications:6
        ~domain_report:(fun s -> stats := Some s)
        run_many_config
    in
    match !stats with
    | Some s -> s
    | None -> Alcotest.fail "domain_report not called"
  in
  let s2 = grab 2 in
  (* on a single-domain box, jobs:2 falls back to in-process sequential
     execution (spawning helpers there only adds timesharing overhead);
     the stats record which path actually ran *)
  let multi = Softstate_sim.Parallel.recommended_jobs () > 1 in
  let expect_domains = if multi then 2 else 1 in
  let expect_mode = if multi then PS.Domains else PS.Sequential in
  Alcotest.(check int) "domain count matches the executed path"
    expect_domains
    (Array.length s2.PS.domains);
  Alcotest.(check string) "mode matches the executed path"
    (PS.mode_name expect_mode) (PS.mode_name s2.PS.mode);
  Alcotest.(check int) "tasks partition the work" 6
    (Array.fold_left (fun acc d -> acc + d.PS.tasks) 0 s2.PS.domains);
  Array.iteri
    (fun i (d : PS.domain) ->
      Alcotest.(check int) (Printf.sprintf "index %d in order" i) i d.PS.index;
      Alcotest.(check bool)
        (Printf.sprintf "domain %d wall non-negative" i)
        true (d.PS.wall_s >= 0.0))
    s2.PS.domains;
  Alcotest.(check bool) "balance within [1, jobs]" true
    (let b = PS.balance s2 in
     b >= 1.0 && b <= float_of_int s2.PS.jobs +. 1e-9);
  let s1 = grab 1 in
  Alcotest.(check int) "sequential path reports one domain" 1 s1.PS.jobs;
  Alcotest.(check string) "sequential path reports its mode"
    (PS.mode_name PS.Sequential) (PS.mode_name s1.PS.mode);
  Alcotest.(check int) "sequential tasks" 6
    (Array.fold_left (fun acc d -> acc + d.PS.tasks) 0 s1.PS.domains)

let test_run_many_single_replication_matches_run () =
  let config = { run_many_config with Experiment.seed = 77 } in
  let _, results = Experiment.run_many ~jobs:2 ~replications:3 config in
  (* each replication must equal a standalone run with its derived seed *)
  let seeds = Experiment.replication_seeds config 3 in
  Array.iteri
    (fun i r ->
      let solo =
        Experiment.run
          { config with Experiment.seed = seeds.(i); obs = None }
      in
      Alcotest.(check bool)
        (Printf.sprintf "replication %d reproducible standalone" i)
        true
        (compare r solo = 0))
    results

(* ------------------------------------------------------------------ *)
(* Golden single-hop results: the transport refactor must be invisible
   to existing configurations. These hex literals were captured from
   the direct Link/Pipe/Channel implementation; any drift in RNG split
   order, event ordering or transport plumbing shows up as a bitwise
   mismatch here.

   Pin provenance note (determinism-lint PR): Topology fanout now
   delivers to subscribers in explicit ascending-sid order (Sub_map +
   sorted at_node lists) instead of relying on registration-order
   lists over a Hashtbl registry, and Table.random_key samples a
   swap-remove key array instead of walking Hashtbl.iter to the
   target index. Both changes were verified byte-identical against
   these pins (sids were already handed out ascending, and the pinned
   configurations draw no update targets), so the hex literals below
   did not need regeneration. *)

let render_golden (r : Experiment.result) =
  Printf.sprintf
    "avg=%h final=%h lat=%h deliv=%d trans=%d hot=%d cold=%d nw=%d ns=%d \
     nsup=%d nd=%d ovf=%d reh=%d live=%d util=%h"
    r.Experiment.avg_consistency r.Experiment.final_consistency
    r.Experiment.latency_mean r.Experiment.deliveries
    r.Experiment.transmissions r.Experiment.sent_hot r.Experiment.sent_cold
    r.Experiment.nacks_wanted r.Experiment.nacks_sent
    r.Experiment.nacks_suppressed r.Experiment.nacks_delivered
    r.Experiment.nack_overflows r.Experiment.reheats r.Experiment.live_at_end
    r.Experiment.utilisation

let golden_base =
  { Experiment.default with Experiment.duration = 600.0; seed = 7 }

let test_golden_open_loop () =
  Alcotest.(check string) "open loop bitwise stable"
    "avg=0x1.585bc7945debp-1 final=0x1.657a3bf6c657ap-1 \
     lat=0x1.367e6bb108caap+3 deliv=8842 trans=27000 hot=0 cold=0 nw=0 ns=0 \
     nsup=0 nd=0 ovf=0 reh=0 live=444 util=0x1.fffb253e4711fp-1"
    (render_golden
       (Experiment.run
          { golden_base with
            Experiment.protocol = Experiment.Open_loop { mu_data_kbps = 45.0 }
          }))

let test_golden_two_queue () =
  Alcotest.(check string) "two queue bitwise stable"
    "avg=0x1.e78beb5e66991p-1 final=0x1.e6a171024e6a1p-1 \
     lat=0x1.5d364763b5511p+0 deliv=8956 trans=27000 hot=8984 cold=18016 \
     nw=0 ns=0 nsup=0 nd=0 ovf=0 reh=0 live=444 util=0x1.fffb253e4711fp-1"
    (render_golden
       (Experiment.run
          { golden_base with
            Experiment.protocol =
              Experiment.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 }
          }))

let test_golden_feedback () =
  Alcotest.(check string) "feedback bitwise stable"
    "avg=0x1.43d4763c3d1f3p-1 final=0x1.2e2049cd42e2p-1 \
     lat=0x1.563c9b4be1907p+3 deliv=8626 trans=22800 hot=11981 cold=10819 \
     nw=5603 ns=5603 nsup=0 nd=4231 ovf=0 reh=4024 live=444 \
     util=0x1.fffa40507b641p-1"
    (render_golden
       (Experiment.run
          { golden_base with
            Experiment.loss = Experiment.Bernoulli 0.25;
            protocol =
              Experiment.Feedback
                { mu_hot_kbps = 20.0; mu_cold_kbps = 18.0; mu_fb_kbps = 7.0;
                  nack_bits = 256; fb_lossy = true }
          }))

let test_golden_multicast () =
  Alcotest.(check string) "multicast bitwise stable"
    "avg=0x1.daab4d7cfa87dp-1 final=0x1.eb3e45306eb3ep-1 \
     lat=0x1.1cf5ba558276p-1 deliv=8983 trans=27000 hot=9355 cold=17645 \
     nw=21339 ns=15250 nsup=6082 nd=8395 ovf=2759 reh=494 live=444 \
     util=0x1.fffb253e4711fp-1"
    (render_golden
       (Experiment.run
          { golden_base with
            Experiment.protocol =
              Experiment.Multicast
                { receivers = 8; mu_hot_kbps = 20.0; mu_cold_kbps = 25.0;
                  mu_fb_kbps = 7.0; nack_bits = 500; suppression = true;
                  nack_slot = 0.5 }
          }))

(* Periodic-sweep expiry on the open-loop expiry config. Consistency,
   latency and false expiries were pinned while the sweep still ran on
   per-receiver Hashtbl maps and stayed bitwise identical when it moved
   onto the struct-of-arrays rows: the expiry predicate is unchanged
   and a sweep's unmatches all happen at one instant, so their order
   cannot reach the time-weighted integral. *)
let test_golden_sweep () =
  let r = Experiment.run (expiry_config 3.0) in
  Alcotest.(check string) "sweep bitwise stable"
    "avg=0x1.496f72b24f54cp-1 final=0x1.3644c25814751p-1 \
     lat=0x1.4f14af4bc64ffp+4 false=156"
    (Printf.sprintf "avg=%h final=%h lat=%h false=%d"
       r.Experiment.avg_consistency r.Experiment.final_consistency
       r.Experiment.latency_mean r.Experiment.false_expiries)

(* Pin provenance: under the sweep, stale_purged is counted at slot
   reclaim (sender death), once per receiver copy that had a gap
   estimate. Before the sweep moved onto the struct-of-arrays rows,
   dead copies lingered in Hashtbl maps and were counted at the next
   sweep scan past their deadline, which gave 38804 here: dead copies
   whose deadline fell past the horizon were never counted. *)
let test_golden_sweep_stale_purged () =
  let r = Experiment.run (expiry_config 3.0) in
  Alcotest.(check int) "sweep stale purges" 39576 r.Experiment.stale_purged

(* Per-key wheel expiry on the ledger's unicast-feedback shape (NACK
   feedback, wheel:3, Bernoulli 0.3) at a short duration. Pinned
   before the per-key timers moved from a dedicated expiry wheel onto
   the engine calendar; the move kept every field bitwise identical.
   Pin provenance for [purged]: the wheel counted a stale purge when
   the orphaned timer of a dead key fired, which gave 19588 here:
   copies whose timer fell past the horizon were never counted. It now
   counts at slot reclaim (sender death), once per armed copy, as the
   sweep does, and timers that could only fire after their key's death
   are never scheduled; avg, final, lat and false did not move. *)
let test_golden_wheel () =
  let r =
    Experiment.run
      { Experiment.default with
        Experiment.seed = 7;
        duration = 2000.0;
        expiry = Base.Refresh_wheel { multiple = 3.0 };
        loss = Experiment.Bernoulli 0.3;
        protocol =
          Experiment.Feedback
            { mu_hot_kbps = 28.8; mu_cold_kbps = 7.2; mu_fb_kbps = 9.0;
              nack_bits = 500; fb_lossy = true } }
  in
  Alcotest.(check string) "wheel bitwise stable"
    "avg=0x1.c4fde4f086c0ep-1 final=0x1.c3052d727b1c3p-1 \
     lat=0x1.69dc3fcc4ba96p+1 false=74 purged=20483"
    (Printf.sprintf "avg=%h final=%h lat=%h false=%d purged=%d"
       r.Experiment.avg_consistency r.Experiment.final_consistency
       r.Experiment.latency_mean r.Experiment.false_expiries
       r.Experiment.stale_purged)

(* ------------------------------------------------------------------ *)
(* Experiments over a topology *)

let run_topo ?(seed = 7) ?(faults = []) topology =
  Experiment.run
    { Experiment.default with
      Experiment.seed;
      duration = 600.0;
      loss = Experiment.Bernoulli 0.1;
      protocol = Experiment.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 };
      topology;
      faults }

let test_topology_experiment_runs () =
  let r = run_topo (Experiment.Chain { hops = 3 }) in
  Alcotest.(check bool) "delivers over multi-hop" true
    (r.Experiment.deliveries > 0);
  Alcotest.(check bool) "reaches useful consistency" true
    (r.Experiment.avg_consistency > 0.5);
  Alcotest.(check int) "no fault activity without faults" 0
    (r.Experiment.fault_transitions + r.Experiment.fault_drops)

let test_topology_experiment_deterministic () =
  let faults =
    match Softstate_net.Fault.specs_of_string "partition@100-200,flap:0.01:10"
    with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let run () = run_topo ~faults (Experiment.Kary_tree { arity = 2; depth = 2 }) in
  let a = run () and b = run () in
  Alcotest.(check bool) "faults actually fired" true
    (a.Experiment.fault_transitions > 0);
  Alcotest.(check bool) "faults destroyed packets" true
    (a.Experiment.fault_drops > 0);
  check_close 0.0 "same consistency" a.Experiment.avg_consistency
    b.Experiment.avg_consistency;
  Alcotest.(check int) "same transitions" a.Experiment.fault_transitions
    b.Experiment.fault_transitions;
  Alcotest.(check int) "same drops" a.Experiment.fault_drops
    b.Experiment.fault_drops

let test_topology_faults_damage_consistency () =
  let clean = run_topo (Experiment.Chain { hops = 2 }) in
  let faults =
    match Softstate_net.Fault.specs_of_string "cable:1@100-400" with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let faulty = run_topo ~faults (Experiment.Chain { hops = 2 }) in
  Alcotest.(check bool) "long outage dents consistency" true
    (faulty.Experiment.avg_consistency
    < clean.Experiment.avg_consistency -. 0.05)

(* Golden pins for multi-hop runs: consistency, latency, fault
   activity and the substrate packet triple of fixed-seed runs over a
   faulty tree and a chain. Star, chain and tree graphs have unique
   shortest paths, so these stay byte-identical under any change to
   how the graph, its routes or its fault bits are stored. *)
let topo_faults s =
  match Softstate_net.Fault.specs_of_string s with
  | Ok specs -> specs
  | Error e -> Alcotest.fail e

let render_topo (r : Experiment.result) =
  Printf.sprintf "avg=%h final=%h lat=%h ft=%d fd=%d sent=%d deliv=%d drop=%d"
    r.Experiment.avg_consistency r.Experiment.final_consistency
    r.Experiment.latency_mean r.Experiment.fault_transitions
    r.Experiment.fault_drops r.Experiment.packets_sent
    r.Experiment.packets_delivered r.Experiment.packets_dropped

let test_golden_topo_tree_faults () =
  Alcotest.(check string) "faulty tree bitwise stable"
    "avg=0x1.b9a5c81aef41bp-1 final=0x1.d1dfb632bd1ep-1 \
     lat=0x1.c2d41205ca8efp+1 ft=18 fd=1197 sent=77054 deliv=71929 drop=5122"
    (render_topo
       (run_topo
          ~faults:(topo_faults "partition@100-200,flap:0.01:10")
          (Experiment.Kary_tree { arity = 2; depth = 2 })))

let test_golden_topo_chain () =
  Alcotest.(check string) "chain bitwise stable"
    "avg=0x1.ae0435cf58d94p-1 final=0x1.af477ed8caf47p-1 \
     lat=0x1.08c17b22c989p+2 ft=0 fd=0 sent=100087 deliv=92669 drop=7414"
    (render_topo (run_topo (Experiment.Chain { hops = 3 })))

(* The ledger's multicast-tree shape (16 receivers, NACK slotting and
   damping, a 4-ary tree of depth 3 at 5% edge loss) at a short
   duration. A tree wave schedules many hops at one instant, so this
   pin catches any change to the order of same-time events. *)
let render_multicast_tree ?(faults = []) seed =
  let r =
    Experiment.run
      { Experiment.default with
        Experiment.seed;
        faults;
        duration = 120.0;
        loss = Experiment.Bernoulli 0.05;
        protocol =
          Experiment.Multicast
            { receivers = 16; mu_hot_kbps = 24.0; mu_cold_kbps = 10.0;
              mu_fb_kbps = 11.0; nack_bits = 500; suppression = true;
              nack_slot = 0.5 };
        topology = Experiment.Kary_tree { arity = 4; depth = 3 } }
  in
  Printf.sprintf "%s nw=%d ns=%d nsup=%d nd=%d ovf=%d" (render_topo r)
    r.Experiment.nacks_wanted r.Experiment.nacks_sent
    r.Experiment.nacks_suppressed r.Experiment.nacks_delivered
    r.Experiment.nack_overflows

let test_golden_multicast_tree () =
  Alcotest.(check (list string)) "multicast tree bitwise stable"
    [ "avg=0x1.55328167f67f2p-1 final=0x1.4f75eebdd7bafp-1 \
       lat=0x1.1140fd1c42569p+3 ft=0 fd=0 sent=327070 deliv=311140 \
       drop=15844 nw=5439 ns=2271 nsup=3154 nd=1960 ovf=0";
      "avg=0x1.5482e0c645a27p-1 final=0x1.54fda6c0964fep-1 \
       lat=0x1.107a32d1a6c61p+3 ft=0 fd=0 sent=326261 deliv=310257 \
       drop=15922 nw=5461 ns=2222 nsup=3231 nd=1926 ovf=0";
      "avg=0x1.563298000bc7bp-1 final=0x1.3845fa2b27121p-1 \
       lat=0x1.0e41a80b9fc4cp+3 ft=0 fd=0 sent=327092 deliv=311010 \
       drop=15997 nw=5448 ns=2268 nsup=3168 nd=1966 ovf=0" ]
    (List.map render_multicast_tree [ 1; 2; 3 ])

(* The same tree under a mid-run partition and flapping cables: the
   only pin that drives the tree fan-out's inject and deliver gates
   with something down, so [ft] and [fd] are non-zero here. *)
let test_golden_multicast_tree_faults () =
  Alcotest.(check (list string)) "faulted multicast tree bitwise stable"
    [ "avg=0x1.555039a53294bp-1 final=0x1.5358049a2cdf3p-1 \
       lat=0x1.126a5fade58dep+3 ft=88 fd=26230 sent=301004 deliv=286393 \
       drop=14525 nw=5401 ns=2258 nsup=3136 nd=1950 ovf=0";
      "avg=0x1.5041aa4251331p-1 final=0x1.4964fda6c0965p-1 \
       lat=0x1.17fadde8a4d32p+3 ft=86 fd=26351 sent=299897 deliv=285266 \
       drop=14569 nw=5625 ns=2282 nsup=3327 nd=1977 ovf=0";
      "avg=0x1.56ca7987ef9cdp-1 final=0x1.36be1ad319134p-1 \
       lat=0x1.0c8eb669f92cdp+3 ft=88 fd=26550 sent=300377 deliv=285640 \
       drop=14655 nw=5465 ns=2265 nsup=3186 nd=1960 ovf=0" ]
    (List.map
       (render_multicast_tree
          ~faults:(topo_faults "partition@40-60,flap:0.01:10"))
       [ 1; 2; 3 ])

let random_topo = Experiment.Random_graph { nodes = 30; edge_prob = 0.1 }

(* Pin provenance: re-pinned when [Topology.random_graph] moved onto
   [Flat_topology.random]. The cable set now comes from geometric
   skips instead of one Bernoulli draw per pair, and ties between
   equal-length routes break by ascending neighbour id instead of
   ascending cable id. The agreement test below checks that the two
   generators give the same consistency in distribution. *)
let test_golden_topo_random () =
  Alcotest.(check string) "random graph bitwise stable"
    "avg=0x1.9454b8ce288dcp-1 final=0x1.a85c40939a85cp-1 \
     lat=0x1.4d2f10ed45827p+2 ft=0 fd=0 sent=119855 deliv=110551 drop=9300"
    (render_topo (run_topo random_topo))

(* Statistical agreement for the random-graph pin: the mean
   [avg_consistency] over seeds 1..10 must stay within two pooled
   standard errors of the reference mean. The reference mean and its
   standard error were measured with the per-pair Bernoulli generator
   and cable-id route tie-break that preceded [Flat_topology.random]. *)
let random_topo_ref_mean = 0.81950734822479743
let random_topo_ref_se = 0.012812038940734932

let test_random_topo_agreement () =
  let xs =
    List.init 10 (fun i ->
        (run_topo ~seed:(i + 1) random_topo).Experiment.avg_consistency)
  in
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0.0 xs /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
    /. (n -. 1.0)
  in
  let se = sqrt (var /. n) in
  let pooled = Float.hypot se random_topo_ref_se in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 2 pooled SE (%.4f) of %.4f" mean pooled
       random_topo_ref_mean)
    true
    (Float.abs (mean -. random_topo_ref_mean) <= 2.0 *. pooled)

let test_faults_require_topology () =
  let faults =
    match Softstate_net.Fault.specs_of_string "flap:0.1:5" with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  Alcotest.check_raises "single-hop faults rejected"
    (Invalid_argument "Experiment.run: faults need a topology") (fun () ->
      ignore (run_topo ~faults Experiment.Single_hop))

(* [check_faults] agrees with [run] on which ids exist. On a random
   graph the cable count comes from the seed, so the check must build
   the graph [run] builds: the first cable id it rejects is one past
   the last that [run] accepts. *)
let test_check_faults_matches_run () =
  let spec s =
    match Softstate_net.Fault.specs_of_string s with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let check ?(topology = random_topo) s =
    Experiment.check_faults
      { Experiment.default with Experiment.seed = 7; topology; faults = spec s }
  in
  Alcotest.(check (result unit string)) "no faults need nothing" (Ok ())
    (check ~topology:Experiment.Single_hop "");
  Alcotest.(check (result unit string)) "single hop"
    (Error "faults need a topology")
    (check ~topology:Experiment.Single_hop "cable:0@1-2");
  Alcotest.(check (result unit string)) "node past the graph"
    (Error "no node 30 of 30") (check "node:30@1-2");
  let rec first_missing k =
    match check (Printf.sprintf "cable:%d@1-2" k) with
    | Ok () -> first_missing (k + 1)
    | Error _ -> k
  in
  let cables = first_missing 0 in
  Alcotest.(check bool) "random cables beyond the spanning chain" true
    (cables > 29);
  ignore
    (run_topo ~faults:(spec (Printf.sprintf "cable:%d@1-2" (cables - 1)))
       random_topo);
  Alcotest.check_raises "run rejects the id the check rejects"
    (Invalid_argument
       (Printf.sprintf "Fault.compile: no cable %d of %d" cables cables))
    (fun () ->
      ignore
        (run_topo ~faults:(spec (Printf.sprintf "cable:%d@1-2" cables))
           random_topo))

(* ------------------------------------------------------------------ *)
(* Gossip dissemination over the flat substrate *)

module Gossip = Core.Gossip
module Flat = Softstate_net.Flat_topology

(* Golden-hex determinism pins: the delivery-trace digest (and every
   counter) of a fixed-seed run is part of the repo's reproducibility
   contract — any change to RNG consumption order, round scheduling or
   the digest fold shows up here. Values measured once and pinned. *)
let test_gossip_golden_uniform () =
  let r =
    Experiment.run_gossip
      { Experiment.gossip_default with
        Experiment.g_seed = 5; g_nodes = 1000; g_fanout = 2; g_loss = 0.1 }
  in
  Alcotest.(check string) "digest pinned" "6af8b32f13106698" r.Gossip.digest;
  Alcotest.(check int) "rounds" 11 r.Gossip.rounds;
  Alcotest.(check int) "infected" 1000 r.Gossip.infected;
  Alcotest.(check int) "transmissions" 8820 r.Gossip.transmissions;
  Alcotest.(check int) "deliveries" 999 r.Gossip.deliveries;
  Alcotest.(check int) "redundant" 6988 r.Gossip.redundant;
  Alcotest.(check int) "lost" 833 r.Gossip.lost

let test_gossip_golden_tree () =
  let r =
    Experiment.run_gossip
      { Experiment.gossip_default with
        Experiment.g_seed = 9;
        g_topology = Experiment.Kary_tree { arity = 2; depth = 8 };
        g_mode = Gossip.Push_pull;
        g_fanout = 2 }
  in
  Alcotest.(check string) "digest pinned" "c9429293ff3b3e42" r.Gossip.digest;
  Alcotest.(check int) "rounds" 13 r.Gossip.rounds;
  Alcotest.(check int) "infected" 511 r.Gossip.infected;
  Alcotest.(check int) "transmissions" 13286 r.Gossip.transmissions;
  Alcotest.(check int) "misses" 7145 r.Gossip.misses

(* The conservation identity the fuzz oracle checks, exercised
   directly across modes and loss settings. *)
let test_gossip_conservation () =
  List.iter
    (fun (mode, loss) ->
      let cfg =
        { Gossip.default with Gossip.seed = 31; mode; fanout = 2; loss;
          initial = 3; max_rounds = 32 }
      in
      let r = Gossip.run cfg (Gossip.Uniform 400) in
      Alcotest.(check int) "contacts all classified" r.Gossip.transmissions
        (r.Gossip.deliveries + r.Gossip.redundant + r.Gossip.misses
        + r.Gossip.lost + r.Gossip.blackholed);
      Alcotest.(check int) "infection ledger" r.Gossip.infected
        (3 + r.Gossip.deliveries))
    [ (Gossip.Push, 0.0); (Gossip.Push, 0.3); (Gossip.Push_pull, 0.0);
      (Gossip.Push_pull, 0.3) ]

(* Reference oracle for [Gossip.run] over a [Mesh]: the contact loop
   written against Flat_topology's checked accessors, one call per
   degree, neighbour, cable and fault read. The library's kernel reads
   the CSR arrays directly and skips the fault tests on an unfaulted
   graph; both must give the same run, field for field. *)
let reference_gossip ?engine (cfg : Gossip.config) flat =
  let n = Flat.node_count flat in
  let own_engine, engine =
    match engine with Some e -> (false, e) | None -> (true, Engine.create ())
  in
  let rng = Rng.create cfg.Gossip.seed in
  let order = Array.make n 0 and rank = Array.make n max_int in
  let count = ref 0 in
  let mix64 z =
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let digest = ref (Int64.of_int cfg.Gossip.seed) in
  let fold x =
    digest :=
      mix64
        (Int64.logxor (Int64.mul !digest 6364136223846793005L) (Int64.of_int x))
  in
  let infect u =
    order.(!count) <- u;
    rank.(u) <- !count;
    incr count;
    fold u
  in
  let initial = min cfg.Gossip.initial n in
  for u = 0 to initial - 1 do
    infect u
  done;
  let target =
    max initial
      (min n (int_of_float (ceil (cfg.Gossip.target_fraction *. float_of_int n))))
  in
  let transmissions = ref 0 and deliveries = ref 0 and redundant = ref 0 in
  let misses = ref 0 and lost = ref 0 and blackholed = ref 0 in
  let rounds = ref 0 in
  let series = Array.make (cfg.Gossip.max_rounds + 1) (0.0, 0.0) in
  let now0 = Engine.now engine in
  let frac () = float_of_int !count /. float_of_int n in
  series.(0) <- (now0, frac ());
  let contact u cutoff =
    incr transmissions;
    let d = Flat.degree flat u in
    if d <= 0 then incr misses
    else begin
      let k = Rng.int rng d in
      if
        not
          (Flat.is_cable_up flat (Flat.neighbor_cable flat u k)
          && Flat.is_node_up flat (Flat.neighbor flat u k))
      then incr blackholed
      else if cfg.Gossip.loss > 0.0 && Rng.bernoulli rng cfg.Gossip.loss then
        incr lost
      else begin
        let w = Flat.neighbor flat u k in
        if cutoff < 0 then
          if rank.(w) < max_int then incr redundant
          else begin
            infect w;
            incr deliveries
          end
        else if rank.(w) < cutoff then
          if rank.(u) < max_int then incr redundant
          else begin
            infect u;
            incr deliveries
          end
        else incr misses
      end
    end
  in
  let round () =
    let active = !count in
    for idx = 0 to active - 1 do
      let u = order.(idx) in
      if Flat.is_node_up flat u then
        for _ = 1 to cfg.Gossip.fanout do
          contact u (-1)
        done
    done;
    (match cfg.Gossip.mode with
    | Gossip.Push -> ()
    | Gossip.Push_pull ->
        for u = 0 to n - 1 do
          if rank.(u) >= active && Flat.is_node_up flat u then
            for _ = 1 to cfg.Gossip.fanout do
              contact u active
            done
        done);
    incr rounds;
    fold (-(!rounds));
    series.(!rounds) <- (Engine.now engine, frac ())
  in
  let rec schedule_round () =
    if !rounds < cfg.Gossip.max_rounds && !count < target then
      Engine.schedule engine ~after:cfg.Gossip.round_period (fun _ ->
          round ();
          schedule_round ())
  in
  schedule_round ();
  if own_engine then Engine.run engine
  else
    Engine.run
      ~until:
        (now0 +. (cfg.Gossip.round_period *. float_of_int cfg.Gossip.max_rounds))
      engine;
  { Gossip.nodes = n;
    rounds = !rounds;
    infected = !count;
    transmissions = !transmissions;
    deliveries = !deliveries;
    redundant = !redundant;
    misses = !misses;
    lost = !lost;
    blackholed = !blackholed;
    digest = Printf.sprintf "%016Lx" !digest;
    series = Array.sub series 0 (!rounds + 1) }

let check_gossip_result name (want : Gossip.result) (got : Gossip.result) =
  let field f what = Alcotest.(check int) (name ^ ": " ^ what) (f want) (f got) in
  field (fun r -> r.Gossip.nodes) "nodes";
  field (fun r -> r.Gossip.rounds) "rounds";
  field (fun r -> r.Gossip.infected) "infected";
  field (fun r -> r.Gossip.transmissions) "transmissions";
  field (fun r -> r.Gossip.deliveries) "deliveries";
  field (fun r -> r.Gossip.redundant) "redundant";
  field (fun r -> r.Gossip.misses) "misses";
  field (fun r -> r.Gossip.lost) "lost";
  field (fun r -> r.Gossip.blackholed) "blackholed";
  Alcotest.(check string) (name ^ ": digest") want.Gossip.digest got.Gossip.digest;
  Alcotest.(check bool) (name ^ ": series") true
    (want.Gossip.series = got.Gossip.series)

(* A packet-level topology's cables rebuilt through of_cables, run
   unfaulted and then with crashed nodes (one of them an initial
   infective) and cut cables, over push and push-pull at loss 0 and
   0.2. Every run must match the reference loop, and the faulted runs'
   digests are pinned. A last run shares its engine with a caller
   event that crashes a node between rounds 2 and 3: the kernel must
   see the fault at the next round's start. *)
let test_gossip_faulted_mesh_reference () =
  let e = Engine.create () in
  let topo =
    Softstate_net.Topology.random_graph ~engine:e ~rng:(Rng.create 21)
      ~rate_bps:1e6 ~nodes:50 ~edge_prob:0.1 ()
  in
  let n = Softstate_net.Topology.node_count topo in
  let cables =
    Array.init
      (Softstate_net.Topology.cable_count topo)
      (Softstate_net.Topology.cable_endpoints topo)
  in
  let flat = Flat.of_cables ~nodes:n cables in
  let cases =
    List.concat_map
      (fun mode -> List.map (fun loss -> (mode, loss)) [ 0.0; 0.2 ])
      [ Gossip.Push; Gossip.Push_pull ]
  in
  let cfg (mode, loss) =
    { Gossip.default with Gossip.seed = 77; mode; fanout = 2; loss;
      initial = 2; max_rounds = 24 }
  in
  let name (mode, loss) = Printf.sprintf "%s loss %g" (Gossip.mode_name mode) loss in
  let compare_all tag =
    List.map
      (fun case ->
        let want = reference_gossip (cfg case) flat in
        let got = Gossip.run (cfg case) (Gossip.Mesh flat) in
        check_gossip_result (tag ^ " " ^ name case) want got;
        got)
      cases
  in
  ignore (compare_all "unfaulted");
  List.iter (fun u -> ignore (Flat.crash_node flat u)) [ 0; 17; 33 ];
  List.iter (fun c -> ignore (Flat.set_cable flat c ~up:false)) [ 1; 5; 9; 20 ];
  let faulted = compare_all "faulted" in
  List.iter
    (fun (r : Gossip.result) ->
      Alcotest.(check bool) "faults blackhole contacts" true (r.blackholed > 0))
    faulted;
  Alcotest.(check (list string)) "faulted digests pinned"
    [ "206f9e501153be09"; "71684934a2d1ebed"; "ba7da0fe88eb2867";
      "9d0a3aae6373dc90" ]
    (List.map (fun (r : Gossip.result) -> r.digest) faulted);
  let shared () =
    let flat = Flat.of_cables ~nodes:n cables in
    let engine = Engine.create () in
    Engine.schedule_at engine ~time:2.5 (fun _ -> ignore (Flat.crash_node flat 7));
    (engine, flat)
  in
  let case = (Gossip.Push_pull, 0.0) in
  let engine, mesh = shared () in
  let want = reference_gossip ~engine (cfg case) mesh in
  let engine, mesh = shared () in
  let got = Gossip.run ~engine (cfg case) (Gossip.Mesh mesh) in
  check_gossip_result "crash between rounds" want got;
  Alcotest.(check string) "crash between rounds: digest pinned" "da0f639df97a6f3a"
    got.Gossip.digest;
  Alcotest.(check bool) "mid-run crash blackholes contacts" true
    (got.Gossip.blackholed > 0)

(* Time x2 law: doubling the round period must leave every count and
   the digest equal and double every series time exactly (scaling by
   a power of two commutes with IEEE rounding). Run on both golden
   configs and on a lossless mesh push-pull config, whose rounds skip
   fixed-outcome contacts. *)
let test_gossip_time_law () =
  let golden_uniform =
    { Experiment.gossip_default with
      Experiment.g_seed = 5; g_nodes = 1000; g_fanout = 2; g_loss = 0.1 }
  and golden_tree =
    { Experiment.gossip_default with
      Experiment.g_seed = 9;
      g_topology = Experiment.Kary_tree { arity = 2; depth = 8 };
      g_mode = Gossip.Push_pull;
      g_fanout = 2 }
  and lossless_mesh =
    { Experiment.gossip_default with
      Experiment.g_seed = 12;
      g_topology = Experiment.Random_graph { nodes = 3000; edge_prob = 0.001 };
      g_mode = Gossip.Push_pull;
      g_fanout = 2;
      g_round_period = 0.75 }
  in
  List.iter
    (fun (name, cfg) ->
      let r = Experiment.run_gossip cfg in
      let twin =
        Experiment.run_gossip
          { cfg with Experiment.g_round_period = 2.0 *. cfg.Experiment.g_round_period }
      in
      let doubled =
        { r with
          Gossip.series = Array.map (fun (t, c) -> (2.0 *. t, c)) r.Gossip.series }
      in
      check_gossip_result (name ^ " x2") doubled twin)
    [ ("golden uniform", golden_uniform); ("golden tree", golden_tree);
      ("lossless mesh", lossless_mesh) ]

(* Differential check of the kernel's fixed-outcome shortcut: a
   lossless run on an unfaulted mesh skips every pusher with no
   uninformed neighbour and every puller with no informed one, and
   must still equal the reference loop, which draws every contact.
   Cases span random meshes and a graph with a 100-leaf hub,
   parallel cables and isolated nodes; push and push-pull; loss 0
   (skipping on) and 0.2 (off); and a shared engine that crashes a
   node after round 2 and restarts it after round 4, so one run
   mixes rounds with and without skipping. *)
type kernel_case = {
  k_seed : int;
  k_hub : bool;
  k_nodes : int;         (* random mesh size, or the hub graph's extra nodes *)
  k_graph_seed : int;
  k_mode : Gossip.mode;
  k_fanout : int;
  k_initial : int;
  k_target : float;
  k_loss : float;
  k_crash : bool;
}

let kernel_case_to_string c =
  Printf.sprintf
    "seed=%d %s nodes=%d graph_seed=%d %s fanout=%d initial=%d target=%g \
     loss=%g crash=%b"
    c.k_seed (if c.k_hub then "hub" else "random") c.k_nodes c.k_graph_seed
    (Gossip.mode_name c.k_mode) c.k_fanout c.k_initial c.k_target c.k_loss
    c.k_crash

let kernel_graph c =
  let rng = Rng.create c.k_graph_seed in
  if not c.k_hub then
    Flat.random ~rng ~nodes:c.k_nodes
      ~edge_prob:(3.0 /. float_of_int c.k_nodes) ()
  else begin
    (* nodes 0 .. m-1 hang off each other or the hub m (some twice,
       some not at all), leaves m+1 .. m+100 off the hub only *)
    let m = c.k_nodes in
    let cables = ref [] in
    for i = 1 to 100 do
      cables := (m, m + i) :: !cables
    done;
    for i = 0 to m - 1 do
      for _ = 1 to Rng.int rng 3 do
        let j = Rng.int rng (m + 1) in
        if j <> i then cables := (i, j) :: !cables
      done
    done;
    Flat.of_cables ~nodes:(m + 101) (Array.of_list (List.rev !cables))
  end

let kernel_config c =
  { Gossip.default with
    Gossip.seed = c.k_seed; mode = c.k_mode; fanout = c.k_fanout;
    loss = c.k_loss; initial = c.k_initial; target_fraction = c.k_target;
    max_rounds = 24 }

let kernel_pair c =
  let side () =
    let flat = kernel_graph c in
    if not c.k_crash then (None, flat)
    else begin
      let engine = Engine.create () in
      let victim = Flat.node_count flat / 3 in
      Engine.schedule_at engine ~time:2.5 (fun _ ->
          ignore (Flat.crash_node flat victim));
      Engine.schedule_at engine ~time:4.5 (fun _ ->
          ignore (Flat.restart_node flat victim));
      (Some engine, flat)
    end
  in
  let engine, flat = side () in
  let want = reference_gossip ?engine (kernel_config c) flat in
  let engine, flat = side () in
  let got = Gossip.run ?engine (kernel_config c) (Gossip.Mesh flat) in
  (want, got)

let qcheck_gossip_kernel_reference =
  let gen =
    QCheck.Gen.(
      map
        (fun ((k_seed, k_hub, k_nodes, k_graph_seed, k_mode),
              (k_fanout, k_initial, k_target, k_loss, k_crash)) ->
          { k_seed; k_hub; k_nodes; k_graph_seed; k_mode; k_fanout;
            k_initial; k_target; k_loss; k_crash })
        (pair
           (tup5 (int_bound 1_000_000) bool (int_range 5 300)
              (int_bound 1_000_000)
              (oneofl [ Gossip.Push; Gossip.Push_pull ]))
           (tup5 (int_range 1 3) (int_range 1 5)
              (oneofl [ 0.3; 0.9; 1.0 ])
              (frequencyl [ (3, 0.0); (1, 0.2) ])
              bool)))
  in
  QCheck.Test.make ~name:"kernel matches reference" ~count:300
    (QCheck.make ~print:kernel_case_to_string gen)
    (fun c ->
      let want, got = kernel_pair c in
      check_gossip_result (kernel_case_to_string c) want got;
      true)

(* A run whose fifth raw draw is rejected by [Rng.int 3]. On a Mobius
   ladder (every node has degree 3) a push-pull round 1 with node 0
   the only infective draws once for node 0 and then once per node
   1 .. n-1, so draw j is node j-1's pull, and nodes 3 .. 18 have no
   informed neighbour: node 4's pull would be skipped. The kernel must
   see that the certificate ends before it, draw it through [Rng.int]
   and so take two raw draws there, as the reference does. The seed
   comes from the tests' own inverse of the SplitMix64 finaliser. *)
let test_gossip_kernel_rejecting_draw () =
  let draw = 5 in
  let seed =
    match Splitmix_inverse.seed_reaching ~draws:draw (-1L) with
    | Some seed -> seed
    | None -> Alcotest.fail "no int seed reaches the all-ones output"
  in
  Alcotest.(check int) "certificate ends before the draw" (draw - 1)
    (Rng.clean_draws (Rng.create seed) ~bound:3);
  let n = 40 in
  let ladder =
    Flat.of_cables ~nodes:n
      (Array.init n (fun i -> (i, (i + 1) mod n))
      |> Array.append (Array.init (n / 2) (fun i -> (i, i + (n / 2)))))
  in
  let cfg =
    { Gossip.default with Gossip.seed; mode = Gossip.Push_pull; max_rounds = 40 }
  in
  let want = reference_gossip cfg ladder in
  check_gossip_result "rejecting draw" want (Gossip.run cfg (Gossip.Mesh ladder))

(* Contacts and infections allocate nothing: push-pull over a
   2*10^4-node random mesh makes 6*10^5 contacts and 2*10^4
   infections in 15 rounds, and the whole run may allocate at most
   200 minor words per round (the round's calendar event and series
   sample; 54 measured). Two boxed int64s per digest step alone would
   be about 8 000. *)
let test_gossip_allocation_flat () =
  let nodes = 20_000 in
  let mesh =
    Flat.random ~rng:(Rng.create 3) ~nodes ~edge_prob:(2.0 /. float_of_int nodes) ()
  in
  let cfg =
    { Gossip.default with Gossip.seed = 5; mode = Gossip.Push_pull; fanout = 2 }
  in
  let before = Gc.minor_words () in
  let r = Gossip.run cfg (Gossip.Mesh mesh) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every node informed" nodes r.Gossip.infected;
  let per_round = words /. float_of_int r.Gossip.rounds in
  if per_round > 200.0 then
    Alcotest.failf "%.0f minor words per round over %d rounds (%d contacts)"
      per_round r.Gossip.rounds r.Gossip.transmissions

(* Mean-field fluid mode: at N = 10^4 with 1% initially infected the
   discrete trajectory tracks the ODE within 0.02 (measured max gap
   0.004), and one fluid step predicts the next discrete fraction
   within 0.01 from any mid-epidemic state. *)
let test_gossip_fluid_convergence () =
  let cfg =
    { Experiment.gossip_default with
      Experiment.g_seed = 42; g_nodes = 10_000; g_initial = 100;
      g_max_rounds = 40 }
  in
  let r = Experiment.run_gossip cfg in
  let fluid = Experiment.fluid_gossip ~rounds:r.Gossip.rounds cfg in
  Alcotest.(check int) "grids align" (Array.length r.Gossip.series)
    (Array.length fluid);
  let gap = ref 0.0 in
  Array.iteri
    (fun i (_, c) -> gap := Float.max !gap (Float.abs (c -. snd fluid.(i))))
    r.Gossip.series;
  Alcotest.(check bool)
    (Printf.sprintf "trajectory gap %.4f within 0.02" !gap)
    true (!gap <= 0.02);
  (* one-step error, scanned across the epidemic's whole range *)
  let pcfg = Experiment.gossip_protocol_config cfg in
  let step_err = ref 0.0 in
  let series = r.Gossip.series in
  for i = 0 to Array.length series - 2 do
    let c = snd series.(i) in
    if c >= 0.005 && c <= 0.995 then
      step_err :=
        Float.max !step_err
          (Float.abs (snd series.(i + 1) -. Gossip.fluid_step pcfg c))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "one-step error %.4f within 0.01" !step_err)
    true (!step_err <= 0.01);
  (* smaller populations sit farther from the mean field: the gap at
     N=100 must exceed the gap at N=10^4 (convergence in N) *)
  let small =
    { cfg with Experiment.g_nodes = 100; g_initial = 1; g_seed = 42 }
  in
  let rs = Experiment.run_gossip small in
  let fs = Experiment.fluid_gossip ~rounds:rs.Gossip.rounds small in
  let gap_small = ref 0.0 in
  Array.iteri
    (fun i (_, c) ->
      gap_small := Float.max !gap_small (Float.abs (c -. snd fs.(i))))
    rs.Gossip.series;
  Alcotest.(check bool) "mean field sharpens with N" true (!gap_small > !gap)

let test_gossip_target_and_validation () =
  let r =
    Gossip.run
      { Gossip.default with Gossip.seed = 4; target_fraction = 0.5;
        fanout = 2 }
      (Gossip.Uniform 500)
  in
  Alcotest.(check bool) "stopped at the target" true
    (r.Gossip.infected >= 250 && r.Gossip.rounds < Gossip.default.Gossip.max_rounds);
  let rejected cfg =
    match Gossip.run cfg (Gossip.Uniform 10) with
    | _ -> Alcotest.fail "invalid config accepted"
    | exception Invalid_argument _ -> ()
  in
  rejected { Gossip.default with Gossip.fanout = 0 };
  rejected { Gossip.default with Gossip.loss = 1.5 };
  rejected { Gossip.default with Gossip.round_period = 0.0 };
  rejected { Gossip.default with Gossip.target_fraction = -0.1 }

let () =
  Alcotest.run "softstate_core"
    [
      ( "gossip",
        [
          Alcotest.test_case "golden uniform run" `Quick
            test_gossip_golden_uniform;
          Alcotest.test_case "golden tree run" `Quick test_gossip_golden_tree;
          Alcotest.test_case "time x2 law" `Quick test_gossip_time_law;
          Alcotest.test_case "conservation identity" `Quick
            test_gossip_conservation;
          Alcotest.test_case "faulted mesh matches reference" `Quick
            test_gossip_faulted_mesh_reference;
          QCheck_alcotest.to_alcotest qcheck_gossip_kernel_reference;
          Alcotest.test_case "kernel at a rejecting draw" `Quick
            test_gossip_kernel_rejecting_draw;
          Alcotest.test_case "allocation flat in contacts" `Quick
            test_gossip_allocation_flat;
          Alcotest.test_case "fluid convergence" `Slow
            test_gossip_fluid_convergence;
          Alcotest.test_case "target and validation" `Quick
            test_gossip_target_and_validation;
        ] );
      ( "model",
        [
          Alcotest.test_case "record touch" `Quick test_record_touch;
          Alcotest.test_case "table insert/remove" `Quick test_table_insert_remove;
          Alcotest.test_case "table random key" `Quick test_table_random_key;
          QCheck_alcotest.to_alcotest qcheck_table_model;
          QCheck_alcotest.to_alcotest qcheck_table_map_model;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "counts" `Quick test_tracker_counts;
          Alcotest.test_case "time average" `Quick test_tracker_time_average;
          Alcotest.test_case "empty policies" `Quick test_tracker_empty_policies;
          Alcotest.test_case "update breaks match" `Quick
            test_tracker_update_breaks_match;
          Alcotest.test_case "latency and redundancy" `Quick
            test_tracker_latency_and_redundancy;
        ] );
      ( "workload",
        [
          Alcotest.test_case "of_kbps" `Quick test_workload_of_kbps;
          Alcotest.test_case "interarrival mean" `Slow
            test_workload_interarrival_mean;
        ] );
      ( "base",
        [
          Alcotest.test_case "arrivals" `Quick test_base_arrivals_populate_table;
          Alcotest.test_case "deliver" `Quick test_base_deliver_updates_tracker;
          Alcotest.test_case "stale versions" `Quick test_base_stale_version_ignored;
          Alcotest.test_case "death draw" `Quick test_base_death_draw;
          Alcotest.test_case "lifetime expiry" `Quick test_base_lifetime_expiry;
          Alcotest.test_case "updates" `Quick test_base_updates;
          Alcotest.test_case "kill" `Quick test_base_kill;
          QCheck_alcotest.to_alcotest qcheck_matching_count;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "matches analytic model" `Slow
            test_open_loop_matches_analytic;
          Alcotest.test_case "redundancy = share" `Slow
            test_open_loop_redundancy_matches_share;
          Alcotest.test_case "lossless latency" `Quick test_open_loop_lossless_latency;
          Alcotest.test_case "deterministic" `Quick
            test_open_loop_deterministic_given_seed;
          Alcotest.test_case "monotone in loss" `Slow
            test_consistency_decreases_with_loss;
        ] );
      ( "two-queue",
        [
          Alcotest.test_case "entry generations" `Quick
            test_two_queue_generations;
          Alcotest.test_case "fetch allocation" `Quick
            test_two_queue_fetch_allocation;
          Alcotest.test_case "beats open loop" `Slow test_two_queue_beats_open_loop;
          Alcotest.test_case "knee at lambda" `Slow
            test_two_queue_starves_below_lambda;
          Alcotest.test_case "hot sends once" `Slow
            test_two_queue_hot_sends_once_per_record;
          Alcotest.test_case "figure-6 latency hump" `Slow
            test_receive_latency_hump;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "improves under loss" `Slow
            test_feedback_improves_consistency_under_loss;
          Alcotest.test_case "collapse when starved" `Slow
            test_feedback_collapse_when_fb_starves_data;
          Alcotest.test_case "no loss no nacks" `Slow test_feedback_no_loss_no_nacks;
          Alcotest.test_case "lossy feedback channel" `Slow
            test_feedback_lossy_channel_still_helps;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "lossless group" `Slow
            test_multicast_lossless_group_consistent;
          Alcotest.test_case "suppression reduces traffic" `Slow
            test_multicast_suppression_reduces_traffic;
          Alcotest.test_case "wanted scales with group" `Slow
            test_multicast_wanted_scales_with_group;
          Alcotest.test_case "deterministic" `Slow test_multicast_deterministic;
        ] );
      ( "expiry",
        [
          Alcotest.test_case "generous multiple harmless" `Slow
            test_expiry_generous_multiple_is_harmless;
          Alcotest.test_case "tight multiple misfires" `Slow
            test_expiry_tight_multiple_misfires;
          Alcotest.test_case "collects dead state" `Slow
            test_expiry_collects_dead_state;
          Alcotest.test_case "disabled counts nothing" `Quick
            test_expiry_disabled_counts_nothing;
          Alcotest.test_case "codec roundtrip" `Quick
            test_expiry_codec_roundtrip;
          Alcotest.test_case "death codec roundtrip" `Quick
            test_death_codec_roundtrip;
          Alcotest.test_case "wheel fires at deadline" `Quick
            test_expiry_wheel_fires_at_deadline;
          Alcotest.test_case "wheel stale purge" `Quick
            test_expiry_wheel_stale_purge;
          Alcotest.test_case "wheel kill counts once" `Quick
            test_expiry_wheel_kill_counts_once;
          Alcotest.test_case "wheel timer past death" `Quick
            test_expiry_wheel_past_death;
          Alcotest.test_case "sweep reclaims at death" `Quick
            test_expiry_sweep_reclaims_at_death;
          Alcotest.test_case "wheel vs sweep agreement" `Slow
            test_expiry_wheel_vs_sweep_agreement;
        ] );
      ( "run_many",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_run_many_deterministic_across_jobs;
          Alcotest.test_case "summary spread" `Quick test_run_many_reports_spread;
          Alcotest.test_case "domain stats" `Quick test_run_many_domain_stats;
          Alcotest.test_case "replications reproducible standalone" `Quick
            test_run_many_single_replication_matches_run;
        ] );
      ( "claims",
        [
          Alcotest.test_case "scheduler choice secondary" `Slow
            test_scheduler_choice_is_secondary;
          Alcotest.test_case "loss-pattern insensitivity" `Slow
            test_gilbert_elliott_same_mean_same_consistency;
        ] );
      ( "golden",
        [
          Alcotest.test_case "open loop" `Quick test_golden_open_loop;
          Alcotest.test_case "two queue" `Quick test_golden_two_queue;
          Alcotest.test_case "feedback" `Quick test_golden_feedback;
          Alcotest.test_case "multicast" `Quick test_golden_multicast;
          Alcotest.test_case "refresh sweep" `Quick test_golden_sweep;
          Alcotest.test_case "refresh sweep stale purged" `Quick
            test_golden_sweep_stale_purged;
          Alcotest.test_case "refresh wheel" `Quick test_golden_wheel;
        ] );
      ( "topology",
        [
          Alcotest.test_case "experiment runs" `Quick
            test_topology_experiment_runs;
          Alcotest.test_case "faulty run deterministic" `Quick
            test_topology_experiment_deterministic;
          Alcotest.test_case "faults damage consistency" `Quick
            test_topology_faults_damage_consistency;
          Alcotest.test_case "faults require topology" `Quick
            test_faults_require_topology;
          Alcotest.test_case "fault check matches run" `Quick
            test_check_faults_matches_run;
          Alcotest.test_case "golden faulty tree" `Quick
            test_golden_topo_tree_faults;
          Alcotest.test_case "golden chain" `Quick test_golden_topo_chain;
          Alcotest.test_case "golden multicast tree" `Quick
            test_golden_multicast_tree;
          Alcotest.test_case "golden multicast tree under faults" `Quick
            test_golden_multicast_tree_faults;
          Alcotest.test_case "golden random graph" `Quick
            test_golden_topo_random;
          Alcotest.test_case "random graph agreement" `Quick
            test_random_topo_agreement;
        ] );
    ]
