(* Tests for the proportional-share schedulers. The central property,
   checked for every algorithm: with all flows continuously
   backlogged, long-run service shares converge to the weight
   ratios. *)

module Rng = Softstate_util.Rng
module Sched = Softstate_sched
module Scheduler = Sched.Scheduler

let check_close eps = Alcotest.(check (float eps))

(* Drive a packed scheduler for [rounds] unit-size services with all
   flows backlogged; return per-flow service counts. *)
let drive sched flows rounds =
  List.iter (fun f -> Scheduler.set_backlogged sched f true) flows;
  let counts = Array.make (List.length flows) 0 in
  for _ = 1 to rounds do
    match Scheduler.select sched with
    | None -> Alcotest.fail "no flow selected while backlogged"
    | Some f ->
        counts.(f) <- counts.(f) + 1;
        Scheduler.charge sched f 1
  done;
  counts

let proportional_share_test algorithm tolerance () =
  let rng = Rng.create 99 in
  let sched = Scheduler.create ~rng algorithm in
  let f1 = Scheduler.add_flow sched ~weight:1.0 in
  let f2 = Scheduler.add_flow sched ~weight:2.0 in
  let f3 = Scheduler.add_flow sched ~weight:3.0 in
  let counts = drive sched [ f1; f2; f3 ] 12_000 in
  check_close tolerance "flow1 share" (1.0 /. 6.0)
    (float_of_int counts.(f1) /. 12_000.0);
  check_close tolerance "flow2 share" (2.0 /. 6.0)
    (float_of_int counts.(f2) /. 12_000.0);
  check_close tolerance "flow3 share" (3.0 /. 6.0)
    (float_of_int counts.(f3) /. 12_000.0)

let work_conserving_test algorithm () =
  let rng = Rng.create 100 in
  let sched = Scheduler.create ~rng algorithm in
  let f1 = Scheduler.add_flow sched ~weight:1.0 in
  let f2 = Scheduler.add_flow sched ~weight:9.0 in
  (* only the light flow is backlogged: it gets everything *)
  Scheduler.set_backlogged sched f1 true;
  Scheduler.set_backlogged sched f2 false;
  for _ = 1 to 100 do
    match Scheduler.select sched with
    | Some f when f = f1 -> Scheduler.charge sched f 1
    | Some _ -> Alcotest.fail "idle flow selected"
    | None -> Alcotest.fail "nothing selected"
  done

let empty_test algorithm () =
  let rng = Rng.create 101 in
  let sched = Scheduler.create ~rng algorithm in
  let f1 = Scheduler.add_flow sched ~weight:1.0 in
  Alcotest.(check (option int)) "nothing backlogged" None (Scheduler.select sched);
  Scheduler.set_backlogged sched f1 true;
  Alcotest.(check (option int)) "now selectable" (Some f1) (Scheduler.select sched)

let no_back_service_test algorithm () =
  (* A flow that idles for a long stretch must not monopolise the
     server on return. *)
  let rng = Rng.create 102 in
  let sched = Scheduler.create ~rng algorithm in
  let f1 = Scheduler.add_flow sched ~weight:1.0 in
  let f2 = Scheduler.add_flow sched ~weight:1.0 in
  Scheduler.set_backlogged sched f1 true;
  Scheduler.set_backlogged sched f2 false;
  for _ = 1 to 1000 do
    match Scheduler.select sched with
    | Some f -> Scheduler.charge sched f 1
    | None -> ()
  done;
  (* f2 wakes; over the next 1000 services it should get roughly half,
     not everything *)
  Scheduler.set_backlogged sched f2 true;
  let f2_count = ref 0 in
  for _ = 1 to 1000 do
    match Scheduler.select sched with
    | Some f ->
        if f = f2 then incr f2_count;
        Scheduler.charge sched f 1
    | None -> ()
  done;
  Alcotest.(check bool)
    (Scheduler.algorithm_name algorithm ^ ": waking flow bounded")
    true
    (!f2_count < 700)

let variable_size_test algorithm () =
  (* The virtual-time schedulers (stride, WFQ, DRR) are proportional
     in *bits*: flow 1 sends big packets, flow 2 small ones, equal
     weights -> equal bits. Lottery is memoryless and proportional
     per *decision* (Waldspurger's compensation tickets are out of
     scope), so for it we assert the decision share instead. *)
  let rng = Rng.create 103 in
  let sched = Scheduler.create ~rng algorithm in
  let f1 = Scheduler.add_flow sched ~weight:1.0 in
  let f2 = Scheduler.add_flow sched ~weight:1.0 in
  Scheduler.set_backlogged sched f1 true;
  Scheduler.set_backlogged sched f2 true;
  let bits = [| 0.0; 0.0 |] in
  let picks = [| 0; 0 |] in
  for _ = 1 to 30_000 do
    match Scheduler.select sched with
    | Some f ->
        let size = if f = f1 then 10 else 1 in
        bits.(f) <- bits.(f) +. float_of_int size;
        picks.(f) <- picks.(f) + 1;
        Scheduler.charge sched f size
    | None -> Alcotest.fail "nothing selected"
  done;
  match algorithm with
  | Scheduler.Lottery ->
      let ratio = float_of_int picks.(f1) /. float_of_int picks.(f2) in
      Alcotest.(check bool) "lottery: decision shares balanced" true
        (ratio > 0.9 && ratio < 1.1)
  | Scheduler.Stride | Scheduler.Wfq | Scheduler.Drr ->
      let ratio = bits.(f1) /. bits.(f2) in
      Alcotest.(check bool)
        (Scheduler.algorithm_name algorithm ^ ": bit shares balanced")
        true
        (ratio > 0.8 && ratio < 1.25)

(* ------------------------------------------------------------------ *)
(* Algorithm-specific *)

let test_stride_fairness_bound () =
  (* Deterministic stride: over any prefix, the absolute error vs the
     ideal weighted share is bounded by a constant. *)
  let s = Sched.Stride.create () in
  let f1 = Sched.Stride.add_flow s ~weight:3.0 in
  let f2 = Sched.Stride.add_flow s ~weight:1.0 in
  Sched.Stride.set_backlogged s f1 true;
  Sched.Stride.set_backlogged s f2 true;
  let c1 = ref 0 in
  for step = 1 to 4000 do
    (match Sched.Stride.select s with
    | Some f ->
        if f = f1 then incr c1;
        Sched.Stride.charge_bits s f 1
    | None -> Alcotest.fail "empty");
    let ideal = 0.75 *. float_of_int step in
    if abs_float (float_of_int !c1 -. ideal) > 2.0 then
      Alcotest.fail
        (Printf.sprintf "stride error too large at step %d: %d vs %.1f" step
           !c1 ideal)
  done

let test_lottery_randomised () =
  (* Two identical lottery schedulers with different RNGs should make
     different choices (it is randomised, not round-robin). *)
  let make seed =
    let s = Sched.Lottery.create ~rng:(Rng.create seed) in
    let a = Sched.Lottery.add_flow s ~weight:1.0 in
    let b = Sched.Lottery.add_flow s ~weight:1.0 in
    Sched.Lottery.set_backlogged s a true;
    Sched.Lottery.set_backlogged s b true;
    List.init 64 (fun _ -> Sched.Lottery.select s)
  in
  Alcotest.(check bool) "different draws" true (make 1 <> make 2)

let test_drr_deficit_accounting () =
  let s = Sched.Drr.create () in
  let f1 = Sched.Drr.add_flow s ~weight:1.0 in
  let f2 = Sched.Drr.add_flow s ~weight:1.0 in
  Sched.Drr.set_backlogged s f1 true;
  Sched.Drr.set_backlogged s f2 true;
  let serve size =
    match Sched.Drr.select s with
    | Some f ->
        Sched.Drr.charge s f size;
        f
    | None -> Alcotest.fail "empty"
  in
  (* a weight-1.0 round covers 0.75 + 0.25 but no more: the flow keeps
     the turn while its deficit stays positive *)
  Alcotest.(check (list int)) "turns follow the deficit" [ f1; f1; f2 ]
    (List.map serve [ 0.75; 0.25; 1.0 ]);
  Sched.Drr.set_backlogged s f2 false;
  (* a huge packet sends the deficit deeply negative; selection must
     still terminate and eventually serve the flow again *)
  (match Sched.Drr.select s with
  | Some f -> Sched.Drr.charge s f 1000.0
  | None -> Alcotest.fail "empty");
  match Sched.Drr.select s with
  | Some f -> Alcotest.(check int) "recovers after bulk replenish" f1 f
  | None -> Alcotest.fail "drr starved after large packet"

(* Re-weighting is the hierarchy's: SSTP's sender re-splits its
   classes with it as loss estimates move. *)
let test_weight_update () =
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let f1 = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  let f2 = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  Sched.Hierarchy.set_backlogged h f1 true;
  Sched.Hierarchy.set_backlogged h f2 true;
  let drive rounds =
    let f2_count = ref 0 in
    for _ = 1 to rounds do
      match Sched.Hierarchy.select h with
      | Some leaf ->
          if leaf = f2 then incr f2_count;
          Sched.Hierarchy.charge h leaf 1.0
      | None -> Alcotest.fail "nothing selected"
    done;
    float_of_int !f2_count /. float_of_int rounds
  in
  ignore (drive 100);
  (* now tilt 1:9 and measure the next stretch *)
  Sched.Hierarchy.set_weight h f1 1.0;
  Sched.Hierarchy.set_weight h f2 9.0;
  check_close 0.03 "retilted share" 0.9 (drive 10_000)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let test_hierarchy_two_level_shares () =
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let data = Sched.Hierarchy.add_child h ~parent:root ~weight:3.0 in
  let fb = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  let hot = Sched.Hierarchy.add_child h ~parent:data ~weight:2.0 in
  let cold = Sched.Hierarchy.add_child h ~parent:data ~weight:1.0 in
  List.iter (fun n -> Sched.Hierarchy.set_backlogged h n true) [ fb; hot; cold ];
  let counts = Hashtbl.create 4 in
  for _ = 1 to 12_000 do
    match Sched.Hierarchy.select h with
    | Some leaf ->
        Hashtbl.replace counts leaf
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts leaf));
        Sched.Hierarchy.charge h leaf 1.0
    | None -> Alcotest.fail "nothing selected"
  done;
  let share n =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts n))
    /. 12_000.0
  in
  (* fb gets 1/4; data's 3/4 splits 2:1 between hot and cold *)
  check_close 0.02 "fb share" 0.25 (share fb);
  check_close 0.02 "hot share" 0.5 (share hot);
  check_close 0.02 "cold share" 0.25 (share cold)

let test_hierarchy_excess_flows_within_class () =
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let data = Sched.Hierarchy.add_child h ~parent:root ~weight:3.0 in
  let fb = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  let hot = Sched.Hierarchy.add_child h ~parent:data ~weight:2.0 in
  let cold = Sched.Hierarchy.add_child h ~parent:data ~weight:1.0 in
  (* hot idle: cold should absorb all of data's 3/4, fb keeps 1/4 *)
  Sched.Hierarchy.set_backlogged h fb true;
  Sched.Hierarchy.set_backlogged h cold true;
  Sched.Hierarchy.set_backlogged h hot false;
  let cold_count = ref 0 and total = 8000 in
  for _ = 1 to total do
    match Sched.Hierarchy.select h with
    | Some leaf ->
        if leaf = cold then incr cold_count;
        Sched.Hierarchy.charge h leaf 1.0
    | None -> Alcotest.fail "nothing selected"
  done;
  check_close 0.02 "cold absorbs hot's share" 0.75
    (float_of_int !cold_count /. float_of_int total)

let test_hierarchy_interior_backlog_rejected () =
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let data = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  let _leaf = Sched.Hierarchy.add_child h ~parent:data ~weight:1.0 in
  Alcotest.check_raises "interior rejected"
    (Invalid_argument "Hierarchy.set_backlogged: interior node") (fun () ->
      Sched.Hierarchy.set_backlogged h data true)

let test_hierarchy_empty_selects_none () =
  let h = Sched.Hierarchy.create () in
  Alcotest.(check bool) "empty tree" true (Sched.Hierarchy.select h = None)


let test_hierarchy_wake_after_heavy_charges () =
  (* Regression: a leaf that idles while siblings and other levels rack
     up service must, on waking, immediately receive its weighted share
     - neither starve (joining at a cross-level or max-sibling pass)
     nor catch up on its idle time. *)
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let data = Sched.Hierarchy.add_child h ~parent:root ~weight:5040.0 in
  let cold = Sched.Hierarchy.add_child h ~parent:root ~weight:2160.0 in
  let a = Sched.Hierarchy.add_child h ~parent:data ~weight:4.0 in
  let b = Sched.Hierarchy.add_child h ~parent:data ~weight:1.0 in
  Sched.Hierarchy.set_backlogged h b true;
  Sched.Hierarchy.set_backlogged h cold true;
  for _ = 1 to 5000 do
    match Sched.Hierarchy.select h with
    | Some leaf -> Sched.Hierarchy.charge h leaf 700.0
    | None -> Alcotest.fail "empty"
  done;
  Sched.Hierarchy.set_backlogged h a true;
  let got_a = ref 0 in
  let first_a = ref (-1) in
  for i = 1 to 5000 do
    match Sched.Hierarchy.select h with
    | Some leaf ->
        if leaf = a then begin
          incr got_a;
          if !first_a < 0 then first_a := i
        end;
        Sched.Hierarchy.charge h leaf 700.0
    | None -> Alcotest.fail "empty"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "served soon after wake (first at %d)" !first_a)
    true
    (!first_a >= 1 && !first_a < 10);
  check_close 0.02 "weighted share after wake" (4.0 /. 5.0 *. 5040.0 /. 7200.0)
    (float_of_int !got_a /. 5000.0)

let test_hierarchy_intermittent_leaf_keeps_share () =
  (* A low-demand leaf that repeatedly drains and re-backlogs must be
     served at its demand when that demand is below its share. *)
  let h = Sched.Hierarchy.create () in
  let root = Sched.Hierarchy.root h in
  let a = Sched.Hierarchy.add_child h ~parent:root ~weight:4.0 in
  let b = Sched.Hierarchy.add_child h ~parent:root ~weight:1.0 in
  Sched.Hierarchy.set_backlogged h b true;
  let pending_a = ref 0 in
  let served_a = ref 0 in
  for round = 1 to 10_000 do
    (* a gets one packet of demand every 10 rounds *)
    if round mod 10 = 0 then begin
      incr pending_a;
      Sched.Hierarchy.set_backlogged h a true
    end;
    match Sched.Hierarchy.select h with
    | Some leaf ->
        if leaf = a then begin
          incr served_a;
          decr pending_a;
          if !pending_a = 0 then Sched.Hierarchy.set_backlogged h a false
        end;
        Sched.Hierarchy.charge h leaf 100.0
    | None -> Alcotest.fail "empty"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "low-demand leaf fully served (%d of 1000)" !served_a)
    true
    (!served_a >= 990)


(* Property: stride scheduling delivers weight-proportional shares for
   arbitrary random weight vectors. *)
let qcheck_stride_proportional =
  QCheck.Test.make ~name:"stride proportional for random weights" ~count:50
    QCheck.(list_of_size Gen.(int_range 2 6) (int_range 1 20))
    (fun weights ->
      let s = Sched.Stride.create () in
      let flows =
        List.map
          (fun w ->
            let f = Sched.Stride.add_flow s ~weight:(float_of_int w) in
            Sched.Stride.set_backlogged s f true;
            (f, w))
          weights
      in
      let rounds = 20_000 in
      let counts = Hashtbl.create 8 in
      for _ = 1 to rounds do
        match Sched.Stride.select s with
        | Some f ->
            Hashtbl.replace counts f
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts f));
            Sched.Stride.charge_bits s f 1
        | None -> ()
      done;
      let total_w = List.fold_left (fun a (_, w) -> a + w) 0 flows in
      List.for_all
        (fun (f, w) ->
          let got =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts f))
            /. float_of_int rounds
          in
          let want = float_of_int w /. float_of_int total_w in
          abs_float (got -. want) < 0.02)
        flows)

(* Property: stride agrees, decision for decision, with a reference
   loop over one record per flow. Small integer weights and charges
   make exact pass ties common, so the first-minimum tie rule is
   exercised; flows are added midway to cross the column growth. *)
type ref_flow = { w : float; mutable on : bool; mutable pass : float }

let qcheck_stride_reference =
  QCheck.Test.make ~name:"stride matches reference loop" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 200)
        (triple (int_bound 3) (int_bound 9) (int_bound 4)))
    (fun ops ->
      let s = Sched.Stride.create () in
      let flows = ref [||] and global = ref 0.0 in
      let add w =
        let f = Sched.Stride.add_flow s ~weight:w in
        assert (f = Array.length !flows);
        flows :=
          Array.append !flows [| { w; on = false; pass = !global } |]
      in
      add 1.0;
      let ref_select () =
        let best = ref None in
        Array.iteri
          (fun i e ->
            if e.on then
              match !best with
              | None -> best := Some i
              | Some j -> if e.pass < !flows.(j).pass then best := Some i)
          !flows;
        !best
      in
      List.for_all
        (fun (op, a, b) ->
          let n = Array.length !flows in
          let f = a mod n in
          (match op with
          | 0 -> add (float_of_int (1 + (a mod 4)))
          | 1 | 2 ->
              let on = op = 1 in
              let e = !flows.(f) in
              if on && not e.on then e.pass <- Float.max e.pass !global;
              e.on <- on;
              Sched.Stride.set_backlogged s f on
          | _ -> (
              match ref_select () with
              | None -> ()
              | Some g ->
                  let e = !flows.(g) in
                  e.pass <- e.pass +. (float_of_int b /. e.w);
                  global := Float.max !global e.pass;
                  Sched.Stride.charge_bits s g b));
          Sched.Stride.select s = ref_select ())
        ops)

(* The packed scheduler takes the charged size as an int, so charging
   stride through it boxes nothing. *)
let test_stride_charge_allocation () =
  let sched = Scheduler.create Scheduler.Stride in
  let f = Scheduler.add_flow sched ~weight:28_800.0 in
  let g = Scheduler.add_flow sched ~weight:7_200.0 in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    Scheduler.charge sched (if i land 1 = 0 then f else g) (500 + i)
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call > 0.0 then
    Alcotest.failf "%.2f minor words per charge (expected 0)" per_call

let algo_cases name algorithm tolerance =
  ( name,
    [
      Alcotest.test_case "proportional shares" `Slow
        (proportional_share_test algorithm tolerance);
      Alcotest.test_case "work conserving" `Quick (work_conserving_test algorithm);
      Alcotest.test_case "empty" `Quick (empty_test algorithm);
      Alcotest.test_case "no back service" `Quick (no_back_service_test algorithm);
      Alcotest.test_case "variable sizes" `Slow (variable_size_test algorithm);
    ] )

let () =
  Alcotest.run "softstate_sched"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_stride_proportional; qcheck_stride_reference ] );
      ( "allocation",
        [ Alcotest.test_case "stride charge" `Quick
            test_stride_charge_allocation ] );
      algo_cases "lottery" Scheduler.Lottery 0.02;
      algo_cases "stride" Scheduler.Stride 0.01;
      algo_cases "wfq" Scheduler.Wfq 0.01;
      algo_cases "drr" Scheduler.Drr 0.02;
      ( "specifics",
        [
          Alcotest.test_case "stride fairness bound" `Quick
            test_stride_fairness_bound;
          Alcotest.test_case "lottery randomised" `Quick test_lottery_randomised;
          Alcotest.test_case "drr deficit accounting" `Quick
            test_drr_deficit_accounting;
          Alcotest.test_case "weight update" `Quick test_weight_update;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "two-level shares" `Slow
            test_hierarchy_two_level_shares;
          Alcotest.test_case "excess within class" `Quick
            test_hierarchy_excess_flows_within_class;
          Alcotest.test_case "interior backlog rejected" `Quick
            test_hierarchy_interior_backlog_rejected;
          Alcotest.test_case "empty" `Quick test_hierarchy_empty_selects_none;
          Alcotest.test_case "wake after heavy charges" `Quick
            test_hierarchy_wake_after_heavy_charges;
          Alcotest.test_case "intermittent leaf share" `Quick
            test_hierarchy_intermittent_leaf_keeps_share;
        ] );
    ]
