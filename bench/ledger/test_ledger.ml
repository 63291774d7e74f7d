(* Tests of the benchmark ledger: order statistics, the comparison
   verdict, span attribution, the BENCHMARK.json manifest, and traced
   reproduction of every workload at a small size. *)

open Softstate_ledger

let close = Alcotest.float 1e-12

(* Reference values from Python's statistics.quantiles(v, n=4). *)
let test_quartiles () =
  let check values (q1, q2, q3) =
    let a, b, c = Summary.quartiles values in
    Alcotest.check close "q1" q1 a;
    Alcotest.check close "q2" q2 b;
    Alcotest.check close "q3" q3 c
  in
  check (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check [ 1.0; 2.0; 3.0; 4.0 ] (1.25, 2.5, 3.75);
  check [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check [ 2.5; 0.5; 9.0; 4.25; 7.75; 1.0 ] (0.875, 3.375, 8.0625);
  check [ 5.0 ] (5.0, 5.0, 5.0);
  Alcotest.check close "median even" 2.5 (Summary.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "median odd" 2.0 (Summary.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "iqr" 5.5 (Summary.iqr (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "spread" 1.0 (Summary.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Summary.verdict_name v))
    ( = )

let judge ?(better = Summary.Lower) ?(bound = 0.1) base change =
  Summary.judge ~better ~bound ~base ~change

(* A tight parent: 10.00 .. 10.09 s, IQR about 0.055. *)
let base = List.init 10 (fun i -> 10.0 +. (0.01 *. float_of_int i))

let test_nine_tenths () =
  (* 9 pairs clearly faster, one slower: improved *)
  let change = List.mapi (fun i b -> if i = 0 then b +. 1.0 else b -. 0.5) base in
  let c = judge base change in
  Alcotest.(check int) "won" 9 c.won;
  Alcotest.check verdict "9/10" Summary.Improved c.verdict;
  (* 8 of 10: not a gain, and within the bound *)
  let change = List.mapi (fun i b -> if i < 2 then b +. 0.2 else b -. 0.5) base in
  let c = judge base change in
  Alcotest.(check int) "won" 8 c.won;
  Alcotest.check verdict "8/10" Summary.Unchanged c.verdict;
  (* 9 wins but a median gap inside the parent's IQR: not a gain *)
  let change = List.mapi (fun i b -> if i = 0 then b +. 1.0 else b -. 0.001) base in
  Alcotest.check verdict "gap below IQR" Summary.Unchanged (judge base change).verdict;
  (* the same rule for a higher-is-better metric *)
  let change = List.mapi (fun i b -> if i = 0 then b -. 1.0 else b +. 0.5) base in
  Alcotest.check verdict "higher is better" Summary.Improved
    (judge ~better:Summary.Higher base change).verdict

let test_ties () =
  (* ties count for neither side: 9 wins + 1 tie is 9/10 ... *)
  let change = List.mapi (fun i b -> if i = 0 then b else b -. 0.5) base in
  let c = judge base change in
  Alcotest.(check int) "won" 9 c.won;
  Alcotest.check verdict "9 wins, 1 tie" Summary.Improved c.verdict;
  (* ... and 8 wins + 2 ties is not *)
  let change = List.mapi (fun i b -> if i < 2 then b else b -. 0.5) base in
  let c = judge base change in
  Alcotest.(check int) "won" 8 c.won;
  Alcotest.check verdict "8 wins, 2 ties" Summary.Unchanged c.verdict;
  let c = judge base base in
  Alcotest.(check int) "all ties" 0 c.won;
  Alcotest.check verdict "identical" Summary.Unchanged c.verdict

let test_worse_and_unresolved () =
  let change = List.map (fun b -> b *. 1.2) base in
  Alcotest.check verdict "20% slower" Summary.Worse (judge base change).verdict;
  let change = List.map (fun b -> b *. 1.05) base in
  Alcotest.check verdict "5% slower, bound 10%" Summary.Unchanged
    (judge base change).verdict;
  (* a parent whose spread (IQR 5.5 on median 5.5) exceeds the bound *)
  let noisy = List.init 10 (fun i -> float_of_int (i + 1)) in
  let change = List.map (fun b -> b *. 1.3) noisy in
  Alcotest.check verdict "spread wider than bound" Summary.Unresolved
    (judge noisy change).verdict;
  (* unless every change run beats every parent run (here by less than
     the parent's IQR, so it is no gain either) *)
  let change = List.init 10 (fun i -> 0.5 +. (0.01 *. float_of_int i)) in
  Alcotest.check verdict "all runs better" Summary.Unchanged
    (judge noisy change).verdict

(* An injected clock: the test sets the time of every reading. *)
let test_span_nesting () =
  let now = ref 0 in
  let sp = Span.create ~clock:(fun () -> !now) [| "a"; "b"; "c" |] in
  let at t f = now := t; f () in
  at 0 (fun () -> Span.arm sp);
  at 10 (fun () -> Span.enter sp 0);
  at 15 (fun () -> Span.enter sp 1);
  at 25 (fun () -> Span.leave sp);
  at 30 (fun () -> Span.enter sp 2);
  at 32 (fun () -> Span.leave sp);
  at 40 (fun () -> Span.leave sp);
  at 50 (fun () -> Span.step sp);
  (* second event: one bare root span *)
  at 60 (fun () -> Span.enter sp 1);
  at 64 (fun () -> Span.leave sp);
  at 70 (fun () -> Span.step sp);
  Span.disarm sp;
  Alcotest.(check int) "a self = 30 - (10 + 2)" 18 (Span.self_ns sp 0);
  Alcotest.(check int) "b self" 14 (Span.self_ns sp 1);
  Alcotest.(check int) "c self" 2 (Span.self_ns sp 2);
  Alcotest.(check int) "b calls" 2 (Span.calls sp 1);
  Alcotest.(check int) "root time" 34 (Span.root_ns sp);
  Alcotest.(check int) "residual (50-30) + (20-4)" 36 (Span.residual_ns sp);
  Alcotest.(check int) "loop" 70 (Span.loop_ns sp);
  Alcotest.(check int) "steps" 2 (Span.steps sp);
  Alcotest.(check bool) "identity" true (Span.identity_holds sp);
  (* a span that closes after the last step breaks the identity *)
  at 80 (fun () -> Span.arm sp);
  at 81 (fun () -> Span.step sp);
  at 82 (fun () -> Span.enter sp 0);
  at 83 (fun () -> Span.leave sp);
  Alcotest.(check bool) "span outside steps" false (Span.identity_holds sp)

let test_span_records () =
  let now = ref 0 in
  let sp = Span.create ~record_events:1 ~clock:(fun () -> !now) [| "a"; "b" |] in
  Span.arm sp;
  now := 5;
  Span.enter sp 0;
  now := 6;
  Span.enter sp 1;
  now := 7;
  Span.leave sp;
  Span.leave sp;
  Span.step sp;
  (* past [record_events]: counted but not recorded *)
  Span.enter sp 1;
  Span.leave sp;
  let path = Filename.temp_file "spans" ".tsv" in
  let oc = open_out path in
  Span.dump sp oc ~run:"test";
  close_out oc;
  let ic = open_in path in
  let lines = List.init 4 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "dump"
    [ "run\tevent\tspan\tparent\tkind\tstart_ns\tend_ns";
      "test\t0\t0\t-1\ta\t5\t7";
      "test\t0\t1\t0\tb\t6\t7" ]
    (List.tl lines);
  Alcotest.(check int) "b calls" 2 (Span.calls sp 1)

let test_span_cost () =
  let _, words = Span.calibrate ~n:10_000 ~clock:Clock.now_ns () in
  Alcotest.check close "words per span" 0.0 words

let test_histogram () =
  List.iter
    (fun v ->
      let approx = Span.bucket_value (Span.bucket v) in
      let err = Float.abs (approx -. float_of_int v) /. float_of_int v in
      if err > 1.0 /. 32.0 then
        Alcotest.failf "bucket value %g for %d (error %g)" approx v err)
    [ 1; 31; 32; 33; 100; 1_000; 65_537; 1_000_000; 123_456_789; 1 lsl 40 ]

let test_manifest () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "BENCHMARK.json = Spec.manifest ()" (Spec.manifest ())
    committed

(* Every workload at a hundredth of its size: the traced reassembly
   reproduces the untraced result field for field, every output check
   passes, and the attribution identity holds exactly. *)
let test_traced_reproduces name () =
  let scale = 0.01 and seed = 7 in
  let plain = Workloads.run name ~seed ~scale in
  let sp = Span.create ~clock:Clock.now_ns Workloads.span_names in
  let traced, _ = Workloads.run_traced sp name ~seed ~scale in
  Alcotest.(check (list (pair string string))) "fields" plain.fields traced.fields;
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) what true ok)
    plain.checks;
  Alcotest.(check bool) "identity" true (Span.identity_holds sp);
  Alcotest.(check bool) "stepped" true (Span.steps sp > 0)

let () =
  Alcotest.run "ledger"
    [ ( "summary",
        [ Alcotest.test_case "quartiles and IQR" `Quick test_quartiles;
          Alcotest.test_case "9/10 rule" `Quick test_nine_tenths;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "worse and unresolved" `Quick
            test_worse_and_unresolved ] );
      ( "span",
        [ Alcotest.test_case "nesting with injected clock" `Quick
            test_span_nesting;
          Alcotest.test_case "records and dump" `Quick test_span_records;
          Alcotest.test_case "zero words per span" `Quick test_span_cost;
          Alcotest.test_case "step histogram" `Quick test_histogram ] );
      ( "manifest",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_manifest ] );
      ( "workloads",
        List.map
          (fun w ->
            Alcotest.test_case ("traced reproduces " ^ w.Spec.w_name) `Quick
              (test_traced_reproduces w.Spec.w_name))
          Spec.workloads ) ]
