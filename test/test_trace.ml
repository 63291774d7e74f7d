(* Tests for the workload generators and trace replay. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Trace = Softstate_trace.Trace_event
module Gen = Softstate_trace.Generators

let rng () = Rng.create 77

(* Generated traces must be time-ordered. *)
let check_ordered trace =
  ignore
    (List.fold_left
       (fun last e ->
         if e.Trace.time < last then Alcotest.fail "time reversed";
         e.Trace.time)
       neg_infinity trace)

let test_trace_check () =
  let replay trace =
    Trace.replay (Engine.create ()) trace
      ~put:(fun ~path:_ ~payload:_ -> ())
      ~remove:(fun ~path:_ -> ())
  in
  replay
    [ { Trace.time = 0.0; op = Trace.Put { path = "a"; payload = "x" } };
      { Trace.time = 1.0; op = Trace.Remove { path = "a" } } ];
  Alcotest.check_raises "replay rejects a reversed trace"
    (Invalid_argument "Trace_event.check: time reversed") (fun () ->
      replay
        [ { Trace.time = 2.0; op = Trace.Remove { path = "a" } };
          { Trace.time = 1.0; op = Trace.Remove { path = "b" } } ])

let test_trace_replay () =
  let engine = Engine.create () in
  let trace =
    [ { Trace.time = 1.0; op = Trace.Put { path = "a"; payload = "1" } };
      { Trace.time = 2.0; op = Trace.Put { path = "b"; payload = "2" } };
      { Trace.time = 3.0; op = Trace.Remove { path = "a" } } ]
  in
  let store = Hashtbl.create 4 in
  Trace.replay engine trace
    ~put:(fun ~path ~payload -> Hashtbl.replace store path payload)
    ~remove:(fun ~path -> Hashtbl.remove store path);
  Engine.run ~until:2.5 engine;
  Alcotest.(check int) "two entries mid-replay" 2 (Hashtbl.length store);
  Engine.run engine;
  Alcotest.(check int) "one entry at end" 1 (Hashtbl.length store);
  Alcotest.(check (option string)) "survivor" (Some "2")
    (Hashtbl.find_opt store "b")

let test_session_directory_shape () =
  let trace = Gen.session_directory ~rng:(rng ()) ~duration:20_000.0 () in
  check_ordered trace;
  Alcotest.(check bool) "non-trivial" true (Trace.length trace > 500);
  (* every Remove must follow a Put of the same path *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.Trace.op with
      | Trace.Put { path; _ } -> Hashtbl.replace seen path ()
      | Trace.Remove { path } ->
          if not (Hashtbl.mem seen path) then
            Alcotest.fail ("remove before put: " ^ path))
    trace;
  (* paths live under sessions/ *)
  List.iter
    (fun e ->
      let path =
        match e.Trace.op with
        | Trace.Put { path; _ } | Trace.Remove { path } -> path
      in
      if not (String.length path > 9 && String.sub path 0 9 = "sessions/") then
        Alcotest.fail ("bad path " ^ path))
    trace

let test_session_directory_lifetimes_heavy_tailed () =
  let trace = Gen.session_directory ~rng:(rng ()) ~duration:50_000.0 () in
  (* measure realised lifetimes *)
  let births = Hashtbl.create 64 in
  let lifetimes = ref [] in
  List.iter
    (fun e ->
      match e.Trace.op with
      | Trace.Put { path; _ } ->
          if not (Hashtbl.mem births path) then
            Hashtbl.replace births path e.Trace.time
      | Trace.Remove { path } -> (
          match Hashtbl.find_opt births path with
          | Some b -> lifetimes := (e.Trace.time -. b) :: !lifetimes
          | None -> ()))
    trace;
  let n = List.length !lifetimes in
  Alcotest.(check bool) "enough sessions ended" true (n > 100);
  let sorted = List.sort compare !lifetimes in
  let median = List.nth sorted (n / 2) in
  let p99 = List.nth sorted (n * 99 / 100) in
  let longest = List.nth sorted (n - 1) in
  (* Pareto(1.5): p99/median = 50^(2/3)/2^(2/3) ~ 8.5 and the sample
     maximum dwarfs the median; an exponential would give p99/median
     ~ 6.6 and max/median ~ 11 at this sample size. *)
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail (p99/med %.1f, max/med %.1f)"
       (p99 /. median) (longest /. median))
    true
    (p99 /. median > 7.0 && longest /. median > 20.0)

let test_routing_updates_shape () =
  let trace =
    Gen.routing_updates ~rng:(rng ()) ~duration:5000.0 ~prefixes:100 ()
  in
  check_ordered trace;
  (* all prefixes announced at time 0 *)
  let initial =
    List.filter (fun e -> e.Trace.time = 0.0) trace |> List.length
  in
  Alcotest.(check int) "full table at t=0" 100 initial;
  (* flapping prefixes produce far more events than calm ones *)
  let by_path = Hashtbl.create 128 in
  List.iter
    (fun e ->
      let path =
        match e.Trace.op with
        | Trace.Put { path; _ } | Trace.Remove { path } -> path
      in
      Hashtbl.replace by_path path
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_path path)))
    trace;
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) by_path [] in
  let max_c = List.fold_left max 0 counts in
  let sorted = List.sort compare counts in
  let median_c = List.nth sorted (List.length sorted / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "flappers dominate (max %d vs median %d)" max_c median_c)
    true
    (max_c > 10 * median_c)

let test_routing_updates_has_withdrawals () =
  let trace = Gen.routing_updates ~rng:(rng ()) ~duration:5000.0 () in
  let removes =
    List.filter (fun e -> match e.Trace.op with Trace.Remove _ -> true | _ -> false)
  in
  Alcotest.(check bool) "withdrawals present" true
    (List.length (removes trace) > 10)

let test_stock_ticker_shape () =
  let trace = Gen.stock_ticker ~rng:(rng ()) ~duration:100.0 ~symbols:50 () in
  check_ordered trace;
  (* initial quotes for every symbol *)
  let initial = List.filter (fun e -> e.Trace.time = 0.0) trace in
  Alcotest.(check int) "initial quotes" 50 (List.length initial);
  (* ~20 updates/s for 100 s *)
  let updates = Trace.length trace - 50 in
  Alcotest.(check bool) "update volume" true (updates > 1500 && updates < 2500);
  (* zipf skew: the most-updated symbol beats the median by a lot *)
  let by_path = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.Trace.op with
      | Trace.Put { path; _ } ->
          Hashtbl.replace by_path path
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_path path))
      | Trace.Remove _ -> ())
    trace;
  let counts = List.sort compare (Hashtbl.fold (fun _ c a -> c :: a) by_path []) in
  let top = List.nth counts (List.length counts - 1) in
  let median = List.nth counts (List.length counts / 2) in
  Alcotest.(check bool) "zipf skew" true (top > 3 * median);
  (* payloads parse as prices *)
  List.iter
    (fun e ->
      match e.Trace.op with
      | Trace.Put { payload; _ } -> (
          match float_of_string_opt payload with
          | Some p when p > 0.0 -> ()
          | _ -> Alcotest.fail ("bad price " ^ payload))
      | Trace.Remove _ -> ())
    trace

let test_generators_deterministic () =
  let a = Gen.stock_ticker ~rng:(Rng.create 5) ~duration:50.0 () in
  let b = Gen.stock_ticker ~rng:(Rng.create 5) ~duration:50.0 () in
  Alcotest.(check bool) "same seed same trace" true (a = b);
  let c = Gen.stock_ticker ~rng:(Rng.create 6) ~duration:50.0 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let () =
  Alcotest.run "softstate_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "check" `Quick test_trace_check;
          Alcotest.test_case "replay" `Quick test_trace_replay;
        ] );
      ( "generators",
        [
          Alcotest.test_case "session directory shape" `Quick
            test_session_directory_shape;
          Alcotest.test_case "heavy-tailed lifetimes" `Slow
            test_session_directory_lifetimes_heavy_tailed;
          Alcotest.test_case "routing shape" `Quick test_routing_updates_shape;
          Alcotest.test_case "routing withdrawals" `Quick
            test_routing_updates_has_withdrawals;
          Alcotest.test_case "stock ticker shape" `Quick test_stock_ticker_shape;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
        ] );
    ]
