(* Tests for the discrete-event engine. *)

module Engine = Softstate_sim.Engine

let test_time_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Engine.now e)

let test_custom_start () =
  let e = Engine.create ~start:100.0 () in
  Alcotest.(check (float 0.0)) "t=100" 100.0 (Engine.now e)

let test_events_fire_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:3.0 (fun _ -> log := 3 :: !log));
  ignore (Engine.schedule e ~after:1.0 (fun _ -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:2.0 (fun _ -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_equal_times_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:1.0 (fun _ -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances_to_event_time () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~after:7.5 (fun e -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "clock at event" 7.5 !seen

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:5.0 (fun _ -> fired := 5 :: !fired));
  Engine.run ~until:3.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check (float 0.0)) "clock at horizon" 3.0 (Engine.now e);
  Alcotest.(check int) "late event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually fires" [ 5; 1 ] !fired

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule e ~after:1.0 (fun _ -> fired := true) in
  Alcotest.(check bool) "cancel succeeds" true (Engine.cancel e ev);
  Alcotest.(check bool) "cancel twice fails" false (Engine.cancel e ev);
  Engine.run e;
  Alcotest.(check bool) "never fired" false !fired

let test_cancel_after_fire () =
  let e = Engine.create () in
  let ev = Engine.schedule e ~after:1.0 (fun _ -> ()) in
  Engine.run e;
  Alcotest.(check bool) "cancel after fire" false (Engine.cancel e ev)

let test_schedule_during_event () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun e ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~after:1.0 (fun _ -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "chained" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "final time" 2.0 (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~after:(-1.0) (fun _ -> ())));
  ignore (Engine.schedule e ~after:5.0 (fun _ -> ()));
  Engine.run e;
  Alcotest.check_raises "absolute past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~time:1.0 (fun _ -> ())))

let test_nan_rejected () =
  (* NaN compares false against everything, so a guard written as
     [x < 0.0] lets it through and the heap then misorders events *)
  let e = Engine.create () in
  let log = ref [] in
  let at d _ = log := d :: !log in
  ignore (Engine.schedule e ~after:1.0 (at 1.0));
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~after:nan (at nan)));
  ignore (Engine.schedule e ~after:2.0 (at 2.0));
  ignore (Engine.schedule e ~after:3.0 (at 3.0));
  Alcotest.check_raises "nan time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~time:nan (at nan)));
  Alcotest.check_raises "nan period"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      let (_ : unit -> bool) = Engine.every e ~period:nan ignore in ());
  Alcotest.check_raises "nan jitter"
    (Invalid_argument "Engine.every: jitter exceeds period") (fun () ->
      let (_ : unit -> bool) =
        Engine.every e ~period:1.0 ~jitter:(fun () -> nan) ignore
      in
      ());
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fires in time order" [ 1.0; 2.0; 3.0 ]
    (List.rev !log);
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending e)

let test_zero_delay_fires () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:0.0 (fun _ -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero delay ok" true !fired

let test_step () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> ()));
  ignore (Engine.schedule e ~after:2.0 (fun _ -> ()));
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_every_period () =
  let e = Engine.create () in
  let count = ref 0 in
  let cancel = Engine.every e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "five firings" 5 !count;
  Alcotest.(check bool) "cancel stops" true (cancel ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "no more firings" 5 !count

let test_every_jitter () =
  let e = Engine.create () in
  let times = ref [] in
  let jitter =
    let toggle = ref true in
    fun () ->
      toggle := not !toggle;
      if !toggle then 0.25 else -0.25
  in
  let _cancel =
    Engine.every e ~period:1.0 ~jitter (fun e -> times := Engine.now e :: !times)
  in
  Engine.run ~until:3.0 e;
  Alcotest.(check bool) "fired at least twice" true (List.length !times >= 2)

let test_loop_telemetry () =
  let e = Engine.create () in
  Alcotest.(check int) "no events yet" 0 (Engine.events_fired e);
  Alcotest.(check int) "empty high water" 0 (Engine.high_water e);
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun _ -> ()))
  done;
  Alcotest.(check int) "high water tracks peak depth" 10 (Engine.high_water e);
  Engine.run ~until:4.5 e;
  Alcotest.(check int) "four fired" 4 (Engine.events_fired e);
  Alcotest.(check (float 0.0)) "clock exactly at horizon" 4.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "all fired" 10 (Engine.events_fired e);
  Alcotest.(check int) "high water is a peak, not depth" 10
    (Engine.high_water e)

let test_on_step_composes () =
  let e = Engine.create () in
  let steps = ref 0 in
  Engine.on_step e (fun _ -> incr steps);
  Engine.on_step e (fun _ -> incr steps);
  for i = 1 to 3 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "both hooks ran per step" 6 !steps

(* ------------------------------------------------------------------ *)
(* Periodic timers *)

let test_every_firing_times () =
  let e = Engine.create () in
  let times = ref [] in
  let _cancel =
    Engine.every e ~period:1.0 (fun e -> times := Engine.now e :: !times)
  in
  Engine.run ~until:5.5 e;
  Alcotest.(check (list (float 1e-9))) "fires every period"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !times)

let test_every_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let cancel = Engine.every e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:2.5 e;
  Alcotest.(check int) "two firings" 2 !count;
  Alcotest.(check bool) "cancel" true (cancel ());
  Alcotest.(check bool) "cancel twice" false (cancel ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "stopped" 2 !count

let test_every_long_period () =
  let e = Engine.create () in
  let times = ref [] in
  let _cancel =
    Engine.every e ~period:100.0 (fun e -> times := Engine.now e :: !times)
  in
  Engine.run ~until:250.0 e;
  Alcotest.(check (list (float 1e-9))) "long periods exact" [ 100.0; 200.0 ]
    (List.rev !times)

let test_every_ties_in_scheduling_order () =
  (* determinism contract: at equal timestamps events fire in
     scheduling order, whether they are one-shots or occurrences of a
     recurring timer *)
  let e = Engine.create () in
  let order = ref [] in
  let note s _ = order := s :: !order in
  let _cancel = Engine.every e ~period:2.0 (note "every") in
  ignore (Engine.schedule e ~after:2.0 (note "one-shot"));
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "armed first fires first"
    [ "every"; "one-shot" ] (List.rev !order);
  let e = Engine.create () in
  order := [];
  ignore (Engine.schedule e ~after:2.0 (note "one-shot"));
  let _cancel = Engine.every e ~period:2.0 (note "every") in
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "and the other way round"
    [ "one-shot"; "every" ] (List.rev !order)

let test_pending_counts_periodic () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:1.0 (fun _ -> ()));
  let cancel = Engine.every e ~period:5.0 (fun _ -> ()) in
  Alcotest.(check int) "one-shot plus periodic" 2 (Engine.pending e);
  ignore (cancel ());
  Alcotest.(check int) "periodic cancelled" 1 (Engine.pending e)

let test_many_events_throughput () =
  let e = Engine.create () in
  let count = ref 0 in
  let g = Softstate_util.Rng.create 1 in
  for _ = 1 to 50_000 do
    ignore
      (Engine.schedule e ~after:(Softstate_util.Rng.float g) (fun _ -> incr count))
  done;
  Engine.run e;
  Alcotest.(check int) "all fired" 50_000 !count

let () =
  Alcotest.run "softstate_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "custom start" `Quick test_custom_start;
          Alcotest.test_case "time order" `Quick test_events_fire_in_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advance" `Quick test_clock_advances_to_event_time;
          Alcotest.test_case "horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
          Alcotest.test_case "schedule during event" `Quick test_schedule_during_event;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_fires;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "every period" `Quick test_every_period;
          Alcotest.test_case "every jitter" `Quick test_every_jitter;
          Alcotest.test_case "loop telemetry" `Quick test_loop_telemetry;
          Alcotest.test_case "on_step composes" `Quick test_on_step_composes;
          Alcotest.test_case "50k events" `Slow test_many_events_throughput;
          Alcotest.test_case "periodic firing times" `Quick
            test_every_firing_times;
          Alcotest.test_case "periodic cancel" `Quick test_every_cancel;
          Alcotest.test_case "periodic long period" `Quick
            test_every_long_period;
          Alcotest.test_case "ties fire in scheduling order" `Quick
            test_every_ties_in_scheduling_order;
          Alcotest.test_case "pending counts periodic" `Quick
            test_pending_counts_periodic;
        ] );
    ]
