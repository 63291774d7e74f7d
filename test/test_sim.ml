(* Tests for the discrete-event engine. *)

module Engine = Softstate_sim.Engine

let test_time_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Engine.now e)

let test_events_fire_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:3.0 (fun _ -> log := 3 :: !log);
  Engine.schedule e ~after:1.0 (fun _ -> log := 1 :: !log);
  Engine.schedule e ~after:2.0 (fun _ -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_equal_times_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~after:1.0 (fun _ -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances_to_event_time () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~after:7.5 (fun e -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-12)) "clock at event" 7.5 !seen

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~after:1.0 (fun _ -> fired := 1 :: !fired);
  Engine.schedule e ~after:5.0 (fun _ -> fired := 5 :: !fired);
  Engine.run ~until:3.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  Alcotest.(check (float 0.0)) "clock at horizon" 3.0 (Engine.now e);
  Alcotest.(check int) "late event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually fires" [ 5; 1 ] !fired

let test_schedule_during_event () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:1.0 (fun e ->
      log := "a" :: !log;
      Engine.schedule e ~after:1.0 (fun _ -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "chained" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "final time" 2.0 (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~after:(-1.0) (fun _ -> ()));
  Engine.schedule e ~after:5.0 (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "absolute past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 (fun _ -> ()))

let test_nan_rejected () =
  (* NaN compares false against everything, so a guard written as
     [x < 0.0] lets it through and the heap then misorders events *)
  let e = Engine.create () in
  let log = ref [] in
  let at d _ = log := d :: !log in
  Engine.schedule e ~after:1.0 (at 1.0);
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~after:nan (at nan));
  Engine.schedule e ~after:2.0 (at 2.0);
  Engine.schedule e ~after:3.0 (at 3.0);
  Alcotest.check_raises "nan time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:nan (at nan));
  Alcotest.check_raises "nan period"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      let (_ : unit -> bool) = Engine.every e ~period:nan ignore in ());
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "fires in time order" [ 1.0; 2.0; 3.0 ]
    (List.rev !log);
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending e)

let test_zero_delay_fires () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~after:0.0 (fun _ -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "zero delay ok" true !fired

let test_step () =
  let e = Engine.create () in
  Engine.schedule e ~after:1.0 (fun _ -> ());
  Engine.schedule e ~after:2.0 (fun _ -> ());
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_every_period () =
  let e = Engine.create () in
  let count = ref 0 in
  let stop = Engine.every e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "five firings" 5 !count;
  Alcotest.(check bool) "stop stops" true (stop ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "no more firings" 5 !count

let test_loop_telemetry () =
  let e = Engine.create () in
  Alcotest.(check int) "no events yet" 0 (Engine.events_fired e);
  Alcotest.(check int) "empty high water" 0 (Engine.high_water e);
  for i = 1 to 10 do
    Engine.schedule e ~after:(float_of_int i) (fun _ -> ())
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
    Engine.schedule e ~after:(float_of_int i) (fun _ -> ())
  done;
  Engine.run e;
  Alcotest.(check int) "both hooks ran per step" 6 !steps

(* ------------------------------------------------------------------ *)
(* Periodic timers *)

let test_every_firing_times () =
  let e = Engine.create () in
  let times = ref [] in
  let _stop =
    Engine.every e ~period:1.0 (fun e -> times := Engine.now e :: !times)
  in
  Engine.run ~until:5.5 e;
  Alcotest.(check (list (float 1e-9))) "fires every period"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !times)

let test_every_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  let stop = Engine.every e ~period:1.0 (fun _ -> incr count) in
  Engine.run ~until:2.5 e;
  Alcotest.(check int) "two firings" 2 !count;
  Alcotest.(check bool) "stop" true (stop ());
  Alcotest.(check bool) "stop twice" false (stop ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "stopped" 2 !count;
  (* a stop from inside the callback ends the recurrence too *)
  let count = ref 0 in
  let stop = ref (fun () -> false) in
  stop :=
    Engine.every e ~period:1.0 (fun _ ->
        incr count;
        if !count = 3 then ignore (!stop ()));
  Engine.run ~until:20.0 e;
  Alcotest.(check int) "stopped from inside" 3 !count;
  Alcotest.(check int) "nothing re-armed" 0 (Engine.pending e)

let test_every_long_period () =
  let e = Engine.create () in
  let times = ref [] in
  let _stop =
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
  let _stop = Engine.every e ~period:2.0 (note "every") in
  Engine.schedule e ~after:2.0 (note "one-shot");
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "armed first fires first"
    [ "every"; "one-shot" ] (List.rev !order);
  let e = Engine.create () in
  order := [];
  Engine.schedule e ~after:2.0 (note "one-shot");
  let _stop = Engine.every e ~period:2.0 (note "every") in
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "and the other way round"
    [ "one-shot"; "every" ] (List.rev !order)

(* The calendar has no cancellation: a stopped timer's armed occurrence
   stays pending and fires as a no-op. *)
let test_pending_counts_periodic () =
  let e = Engine.create () in
  Engine.schedule e ~after:1.0 (fun _ -> ());
  let count = ref 0 in
  let stop = Engine.every e ~period:5.0 (fun _ -> incr count) in
  Alcotest.(check int) "one-shot plus periodic" 2 (Engine.pending e);
  ignore (stop ());
  Alcotest.(check int) "stopped occurrence still pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "it fired as a no-op" 0 !count;
  Alcotest.(check int) "calendar drained" 0 (Engine.pending e);
  Alcotest.(check int) "both events fired" 2 (Engine.events_fired e)

(* A step whose callback is preallocated and re-arms itself, with 600
   events pending, allocates two float boxes: the clock it advances and
   the absolute time [schedule] computes. The calendar's insert and
   extraction allocate nothing. *)
let test_step_allocation () =
  let e = Engine.create () in
  let rec again e = Engine.schedule e ~after:600.0 again in
  for i = 1 to 600 do
    Engine.schedule e ~after:(float_of_int i) again
  done;
  let steps = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    ignore (Engine.step e)
  done;
  let per_event = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check int) "still 600 pending" 600 (Engine.pending e);
  if per_event > 4.0 +. 1e-3 then
    Alcotest.failf "%.3f words per event, expected at most 4" per_event

(* The same bound with every event in a run: 600 events in 100 runs of
   six at distinct times, each re-arming itself 100 s later. The six
   members of a run re-arm back to back at one time, so the first
   opens a new calendar entry and the other five join its run. *)
let test_step_allocation_runs () =
  let e = Engine.create () in
  let rec again e = Engine.schedule e ~after:100.0 again in
  for i = 1 to 600 do
    Engine.schedule_at e ~time:(float_of_int (1 + (i / 6))) again
  done;
  let steps = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    ignore (Engine.step e)
  done;
  let per_event = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check int) "still 600 pending" 600 (Engine.pending e);
  if per_event > 4.0 +. 1e-3 then
    Alcotest.failf "%.3f words per event, expected at most 4" per_event

(* Three callbacks scheduled back to back at one time share a calendar
   entry; [step] still fires them one at a time, in order. *)
let test_step_through_run () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun name -> Engine.schedule e ~after:1.0 (fun _ -> log := name :: !log))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "three pending" 3 (Engine.pending e);
  List.iter
    (fun (fired, left) ->
      Alcotest.(check bool) "stepped" true (Engine.step e);
      Alcotest.(check (list string)) "one callback per step" fired
        (List.rev !log);
      Alcotest.(check int) "pending" left (Engine.pending e))
    [ ([ "a" ], 2); ([ "a"; "b" ], 1); ([ "a"; "b"; "c" ], 0) ];
  Alcotest.(check bool) "drained" false (Engine.step e);
  Alcotest.(check int) "fired" 3 (Engine.events_fired e)

(* [high_water], [events_fired] and [on_step] count callbacks, not
   calendar entries: five callbacks in one run read as five. *)
let test_counters_count_callbacks () =
  let e = Engine.create () in
  let steps = ref 0 in
  Engine.on_step e (fun _ -> incr steps);
  for _ = 1 to 5 do
    Engine.schedule e ~after:2.0 (fun _ -> ())
  done;
  Engine.schedule e ~after:1.0 (fun e ->
      Engine.schedule e ~after:0.0 (fun _ -> ());
      Engine.schedule e ~after:0.0 (fun _ -> ()));
  Alcotest.(check int) "pending" 6 (Engine.pending e);
  Alcotest.(check int) "high water" 6 (Engine.high_water e);
  Engine.run e;
  Alcotest.(check int) "high water counts zero-delay callbacks" 7
    (Engine.high_water e);
  Alcotest.(check int) "events fired" 8 (Engine.events_fired e);
  Alcotest.(check int) "on_step per callback" 8 !steps;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* Model check of the determinism contract. A script schedules bursts
   of events at equal times (bursts broken by single events at other
   times); each event, when it fires, schedules the children its
   template lists, which are mostly zero-delay bursts. The engine's
   firing order, times and counters must match a reference that keeps
   the pending events in a list and always fires the least (time,
   scheduling order). Delays are dyadic so every time sum is exact. *)
let delay_gen = QCheck.Gen.oneofl [ 0.0; 0.0; 0.0; 0.25; 0.5; 1.0; 3.0 ]

let bursts_gen =
  QCheck.Gen.(
    map
      (List.concat_map (fun (d, n) -> List.init n (fun _ -> d)))
      (list_size (int_range 0 5) (pair delay_gen (int_range 1 4))))

type script = {
  roots : float list;          (* delays scheduled before the run *)
  templates : float list array; (* event [i]'s children: template [i mod n] *)
  cap : int;                    (* events scheduled in all *)
  stepped : bool;               (* drive with [step] rather than [run] *)
}

let script_gen =
  QCheck.Gen.(
    map
      (fun (((roots, templates), cap), stepped) ->
        { roots = 1.0 :: roots; templates = Array.of_list templates; cap;
          stepped })
      (pair
         (pair
            (pair bursts_gen (list_size (int_range 1 6) bursts_gen))
            (int_range 1 300))
         bool))

let print_script s =
  let delays l = String.concat ";" (List.map string_of_float l) in
  Printf.sprintf "roots=[%s] templates=[%s] cap=%d stepped=%b"
    (delays s.roots)
    (String.concat " | " (Array.to_list (Array.map delays s.templates)))
    s.cap s.stepped

(* Firing log (event id, time), high water and events fired. *)
let engine_trace s =
  let e = Engine.create () in
  let log = ref [] and next = ref 0 in
  let rec spawn e delay =
    if !next < s.cap then begin
      let id = !next in
      incr next;
      Engine.schedule e ~after:delay (fun e ->
          log := (id, Engine.now e) :: !log;
          List.iter (spawn e) s.templates.(id mod Array.length s.templates))
    end
  in
  List.iter (spawn e) s.roots;
  if s.stepped then while Engine.step e do () done else Engine.run e;
  (List.rev !log, Engine.high_water e, Engine.events_fired e)

let reference_trace s =
  (* pending events as (time, id); ids are minted in scheduling order *)
  let pending = ref [] and log = ref [] and next = ref 0 and now = ref 0.0 in
  let high = ref 0 in
  let spawn delay =
    if !next < s.cap then begin
      pending := (!now +. delay, !next) :: !pending;
      incr next;
      high := max !high (List.length !pending)
    end
  in
  List.iter spawn s.roots;
  let rec loop () =
    match List.sort compare !pending with
    | [] -> ()
    | ((time, id) as first) :: _ ->
        pending := List.filter (fun ev -> ev <> first) !pending;
        now := time;
        log := (id, time) :: !log;
        List.iter spawn s.templates.(id mod Array.length s.templates);
        loop ()
  in
  loop ();
  (List.rev !log, !high, List.length !log)

let qcheck_engine_matches_reference =
  QCheck.Test.make ~name:"engine fires in (time, scheduling order)"
    ~count:300
    (QCheck.make ~print:print_script script_gen)
    (fun s -> engine_trace s = reference_trace s)

(* The same contract with lanes in the mix. Each child is scheduled one
   of four ways: [schedule], [schedule_at], or onto one of two lanes,
   whose delays are drawn from the same set (zero included, so lane
   entries land inside zero-delay runs and tie with them). The log
   also records [pending] as each callback sees it, and the reference
   counts a lane entry like any other pending event. *)
type via = Plain | At | Lane_a | Lane_b

type lane_script = {
  lroots : (via * float) list;
  ltemplates : (via * float) list array;
  lcap : int;
  lane_delays : float * float;
  lstepped : bool;
}

let via_gen = QCheck.Gen.oneofl [ Plain; Plain; At; Lane_a; Lane_a; Lane_b ]

let children_gen =
  QCheck.Gen.(
    map
      (List.concat_map (fun ((via, d), n) -> List.init n (fun _ -> (via, d))))
      (list_size (int_range 0 5) (pair (pair via_gen delay_gen) (int_range 1 4))))

let lane_script_gen =
  QCheck.Gen.(
    map
      (fun ((((roots, templates), cap), lane_delays), stepped) ->
        { lroots = (Lane_a, 0.0) :: (Plain, 1.0) :: roots;
          ltemplates = Array.of_list templates; lcap = cap; lane_delays;
          lstepped = stepped })
      (pair
         (pair
            (pair
               (pair children_gen (list_size (int_range 1 6) children_gen))
               (int_range 1 300))
            (pair delay_gen delay_gen))
         bool))

let print_lane_script s =
  let child (via, d) =
    Printf.sprintf "%s%g"
      (match via with Plain -> "" | At -> "@" | Lane_a -> "A" | Lane_b -> "B")
      d
  in
  let children l = String.concat ";" (List.map child l) in
  Printf.sprintf "roots=[%s] templates=[%s] cap=%d lanes=(%g,%g) stepped=%b"
    (children s.lroots)
    (String.concat " | " (Array.to_list (Array.map children s.ltemplates)))
    s.lcap (fst s.lane_delays) (snd s.lane_delays) s.lstepped

(* Firing log (event id, time, pending), high water and events fired. *)
let lane_engine_trace s =
  let e = Engine.create () in
  let log = ref [] and next = ref 0 in
  let fired = ref (fun _ _ -> ()) in
  let lane_a = Engine.lane e ~delay:(fst s.lane_delays) (fun e id -> !fired e id)
  and lane_b = Engine.lane e ~delay:(snd s.lane_delays) (fun e id -> !fired e id) in
  let spawn e (via, delay) =
    if !next < s.lcap then begin
      let id = !next in
      incr next;
      match via with
      | Plain -> Engine.schedule e ~after:delay (fun e -> !fired e id)
      | At -> Engine.schedule_at e ~time:(Engine.now e +. delay) (fun e -> !fired e id)
      | Lane_a -> Engine.lane_schedule lane_a id
      | Lane_b -> Engine.lane_schedule lane_b id
    end
  in
  (fired :=
     fun e id ->
       log := (id, Engine.now e, Engine.pending e) :: !log;
       List.iter (spawn e) s.ltemplates.(id mod Array.length s.ltemplates));
  List.iter (spawn e) s.lroots;
  if s.lstepped then while Engine.step e do () done else Engine.run e;
  (List.rev !log, Engine.high_water e, Engine.events_fired e, Engine.pending e)

let lane_reference_trace s =
  let pending = ref [] and log = ref [] and next = ref 0 and now = ref 0.0 in
  let high = ref 0 in
  let spawn (via, delay) =
    if !next < s.lcap then begin
      let delay =
        match via with
        | Plain | At -> delay
        | Lane_a -> fst s.lane_delays
        | Lane_b -> snd s.lane_delays
      in
      pending := (!now +. delay, !next) :: !pending;
      incr next;
      high := max !high (List.length !pending)
    end
  in
  List.iter spawn s.lroots;
  let rec loop () =
    match List.sort compare !pending with
    | [] -> ()
    | ((time, id) as first) :: _ ->
        pending := List.filter (fun ev -> ev <> first) !pending;
        now := time;
        log := (id, time, List.length !pending) :: !log;
        List.iter spawn s.ltemplates.(id mod Array.length s.ltemplates);
        loop ()
  in
  loop ();
  (List.rev !log, !high, List.length !log, 0)

let qcheck_engine_lanes_match_reference =
  QCheck.Test.make ~name:"lanes keep (time, scheduling order) and counters"
    ~count:300
    (QCheck.make ~print:print_lane_script lane_script_gen)
    (fun s -> lane_engine_trace s = lane_reference_trace s)

(* A lane entry that re-schedules itself onto its lane, with 600
   pending, allocates only the clock's float box per step: the ring
   and the heap entry of its head allocate nothing once grown. *)
let test_lane_allocation () =
  let e = Engine.create () in
  let lane = ref None in
  let again _ x =
    match !lane with Some l -> Engine.lane_schedule l x | None -> ()
  in
  let l = Engine.lane e ~delay:600.0 again in
  lane := Some l;
  for i = 1 to 600 do
    Engine.schedule e ~after:(float_of_int i) (fun _ -> Engine.lane_schedule l i)
  done;
  Engine.run ~until:600.0 e;
  Alcotest.(check int) "600 in the lane" 600 (Engine.pending e);
  let steps = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    ignore (Engine.step e)
  done;
  let per_event = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check int) "still 600 pending" 600 (Engine.pending e);
  if per_event > 2.0 +. 1e-3 then
    Alcotest.failf "%.3f words per event, expected at most 2" per_event

let test_lane_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.lane: negative delay")
    (fun () -> ignore (Engine.lane e ~delay:(-1.0) (fun _ _ -> ())));
  Alcotest.check_raises "nan" (Invalid_argument "Engine.lane: negative delay")
    (fun () -> ignore (Engine.lane e ~delay:Float.nan (fun _ _ -> ())))

let test_many_events_throughput () =
  let e = Engine.create () in
  let count = ref 0 in
  let g = Softstate_util.Rng.create 1 in
  for _ = 1 to 50_000 do
    Engine.schedule e ~after:(Softstate_util.Rng.float g) (fun _ -> incr count)
  done;
  Engine.run e;
  Alcotest.(check int) "all fired" 50_000 !count

let () =
  Alcotest.run "softstate_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_events_fire_in_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advance" `Quick test_clock_advances_to_event_time;
          Alcotest.test_case "horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "schedule during event" `Quick test_schedule_during_event;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_fires;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "every period" `Quick test_every_period;
          Alcotest.test_case "loop telemetry" `Quick test_loop_telemetry;
          Alcotest.test_case "on_step composes" `Quick test_on_step_composes;
          Alcotest.test_case "50k events" `Slow test_many_events_throughput;
          Alcotest.test_case "step allocation" `Quick test_step_allocation;
          Alcotest.test_case "step allocation in runs" `Quick
            test_step_allocation_runs;
          Alcotest.test_case "step through a run" `Quick test_step_through_run;
          Alcotest.test_case "counters count callbacks" `Quick
            test_counters_count_callbacks;
          Alcotest.test_case "periodic firing times" `Quick
            test_every_firing_times;
          Alcotest.test_case "periodic cancel" `Quick test_every_stop;
          Alcotest.test_case "periodic long period" `Quick
            test_every_long_period;
          Alcotest.test_case "ties fire in scheduling order" `Quick
            test_every_ties_in_scheduling_order;
          Alcotest.test_case "pending counts periodic" `Quick
            test_pending_counts_periodic;
          Alcotest.test_case "lane allocation" `Quick test_lane_allocation;
          Alcotest.test_case "lane delay rejected" `Quick
            test_lane_negative_delay;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_engine_lanes_match_reference ] );
    ]
