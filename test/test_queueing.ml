(* Tests for the analytic queueing library, including cross-checks of
   the paper's closed forms against independent derivations (Jackson
   traffic equations, Markov absorption) and against simulation. *)

module Linalg = Softstate_queueing.Linalg
module Markov = Softstate_queueing.Markov
module Mm1 = Softstate_queueing.Mm1
module Jackson = Softstate_queueing.Jackson
module Open_loop = Softstate_queueing.Open_loop

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Linalg *)

let test_solve_identity () =
  let x = Linalg.solve [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] [| 3.0; 4.0 |] in
  check_close 1e-12 "x0" 3.0 x.(0);
  check_close 1e-12 "x1" 4.0 x.(1)

let test_solve_general () =
  (* 2x + y = 5; x - y = 1 -> x = 2, y = 1 *)
  let x = Linalg.solve [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 5.0; 1.0 |] in
  check_close 1e-12 "x" 2.0 x.(0);
  check_close 1e-12 "y" 1.0 x.(1)

let test_solve_needs_pivoting () =
  (* zero on the diagonal forces a row swap *)
  let x = Linalg.solve [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] [| 7.0; 9.0 |] in
  check_close 1e-12 "x" 9.0 x.(0);
  check_close 1e-12 "y" 7.0 x.(1)

let test_solve_singular () =
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular system")
    (fun () ->
      ignore (Linalg.solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 2.0 |]))

let test_solve_residual_random () =
  let g = Softstate_util.Rng.create 7 in
  for _ = 1 to 50 do
    let n = 2 + Softstate_util.Rng.int g 6 in
    let a =
      Array.init n (fun _ ->
          Array.init n (fun _ -> Softstate_util.Rng.float g -. 0.5))
    in
    (* diagonal dominance guarantees solvability *)
    for i = 0 to n - 1 do
      a.(i).(i) <- a.(i).(i) +. float_of_int n
    done;
    let b = Array.init n (fun _ -> Softstate_util.Rng.float g) in
    let x = Linalg.solve a b in
    let r = Linalg.vec_sub (Linalg.mat_vec a x) b in
    if Linalg.max_abs r > 1e-9 then Alcotest.fail "residual too large"
  done

(* ------------------------------------------------------------------ *)
(* Markov *)

let test_markov_stationary_two_state () =
  let chain = Markov.create [| [| 0.9; 0.1 |]; [| 0.3; 0.7 |] |] in
  let pi = Markov.stationary chain in
  check_close 1e-9 "pi0" 0.75 pi.(0);
  check_close 1e-9 "pi1" 0.25 pi.(1)

let test_markov_stationary_is_fixed_point () =
  let chain =
    Markov.create
      [| [| 0.5; 0.25; 0.25 |]; [| 0.2; 0.6; 0.2 |]; [| 0.1; 0.3; 0.6 |] |]
  in
  let pi = Markov.stationary chain in
  let pi' = Markov.step chain pi in
  Array.iteri (fun i p -> check_close 1e-9 "fixed point" p pi'.(i)) pi

let test_markov_row_sum_validation () =
  Alcotest.check_raises "bad rows"
    (Invalid_argument "Markov.create: row does not sum to 1") (fun () ->
      ignore (Markov.create [| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |]))

let test_markov_absorption_gambler () =
  (* Gambler's ruin on {0..3} with p=0.5: absorption at 3 from 1 is
     1/3, from 2 is 2/3. *)
  let chain =
    Markov.create
      [|
        [| 1.0; 0.0; 0.0; 0.0 |];
        [| 0.5; 0.0; 0.5; 0.0 |];
        [| 0.0; 0.5; 0.0; 0.5 |];
        [| 0.0; 0.0; 0.0; 1.0 |];
      |]
  in
  let probs = Markov.absorption_probabilities chain ~absorbing:[ 0; 3 ] in
  check_close 1e-9 "from 1 to top" (1.0 /. 3.0) probs.(1).(1);
  check_close 1e-9 "from 2 to top" (2.0 /. 3.0) probs.(2).(1);
  check_close 1e-9 "rows sum to 1" 1.0 (probs.(1).(0) +. probs.(1).(1));
  let steps = Markov.expected_steps_to_absorption chain ~absorbing:[ 0; 3 ] in
  check_close 1e-9 "mean steps from 1" 2.0 steps.(1);
  check_close 1e-9 "absorbing takes 0" 0.0 steps.(0)

(* ------------------------------------------------------------------ *)
(* M/M/1 *)

let test_mm1_formulas () =
  let q = Mm1.create ~lambda:2.0 ~mu:5.0 in
  check_close 1e-12 "rho" 0.4 (Mm1.utilisation q);
  check_close 1e-12 "L" (0.4 /. 0.6) (Mm1.mean_number_in_system q);
  check_close 1e-12 "W" (1.0 /. 3.0) (Mm1.mean_sojourn_time q);
  check_close 1e-12 "Wq" (0.4 /. 3.0) (Mm1.mean_waiting_time q);
  check_close 1e-12 "P0" 0.6 (Mm1.prob_empty q);
  (* Little's law: L = lambda W *)
  check_close 1e-12 "little" (2.0 *. Mm1.mean_sojourn_time q)
    (Mm1.mean_number_in_system q)

let test_mm1_distribution_sums () =
  let q = Mm1.create ~lambda:1.0 ~mu:2.0 in
  let total = ref 0.0 in
  for n = 0 to 200 do
    total := !total +. Mm1.prob_n_in_system q n
  done;
  check_close 1e-9 "distribution sums to 1" 1.0 !total

let test_mm1_unstable () =
  let q = Mm1.create ~lambda:5.0 ~mu:2.0 in
  Alcotest.(check bool) "unstable" false (Mm1.is_stable q);
  Alcotest.check_raises "L raises" (Failure "Mm1: queue is unstable (lambda >= mu)")
    (fun () -> ignore (Mm1.mean_number_in_system q))

let test_mm1_vs_simulation () =
  (* An M/M/1 queue simulated on our engine matches W = 1/(mu-lambda). *)
  let module Engine = Softstate_sim.Engine in
  let module Dist = Softstate_util.Dist in
  let engine = Engine.create () in
  let g = Softstate_util.Rng.create 42 in
  let lambda = 3.0 and mu = 5.0 in
  let queue = Queue.create () in
  let busy = ref false in
  let sojourns = Softstate_util.Stats.Welford.create () in
  let rec depart arrival_time engine =
    Softstate_util.Stats.Welford.add sojourns (Engine.now engine -. arrival_time);
    match Queue.take_opt queue with
    | Some next -> serve next engine
    | None -> busy := false
  and serve arrival_time engine =
    busy := true;
    Engine.schedule engine ~after:(Dist.exponential g ~rate:mu)
      (depart arrival_time)
  in
  let rec arrive engine =
    let now = Engine.now engine in
    if !busy then Queue.add now queue else serve now engine;
    Engine.schedule engine ~after:(Dist.exponential g ~rate:lambda) arrive
  in
  Engine.schedule engine ~after:(Dist.exponential g ~rate:lambda) arrive;
  Engine.run ~until:20_000.0 engine;
  let analytic = Mm1.mean_sojourn_time (Mm1.create ~lambda ~mu) in
  check_close 0.02 "simulated sojourn matches M/M/1"
    analytic
    (Softstate_util.Stats.Welford.mean sojourns)

(* ------------------------------------------------------------------ *)
(* Jackson *)

let test_jackson_single_node_is_mm1 () =
  let net =
    Jackson.create ~external_arrivals:[| 2.0 |] ~service_rates:[| 5.0 |]
      ~routing:[| [| 0.0 |] |]
  in
  check_close 1e-12 "throughput" 2.0 (Jackson.throughputs net).(0);
  check_close 1e-12 "mean jobs matches mm1"
    (Mm1.mean_number_in_system (Mm1.create ~lambda:2.0 ~mu:5.0))
    (Jackson.mean_jobs net).(0)

let test_jackson_feedback_node () =
  (* One node; after service jobs return with probability q: effective
     arrival rate lambda/(1-q). *)
  let q = 0.4 in
  let net =
    Jackson.create ~external_arrivals:[| 1.0 |] ~service_rates:[| 5.0 |]
      ~routing:[| [| q |] |]
  in
  check_close 1e-9 "geometric visits" (1.0 /. (1.0 -. q))
    (Jackson.throughputs net).(0)

let test_jackson_tandem () =
  let net =
    Jackson.create ~external_arrivals:[| 2.0; 0.0 |]
      ~service_rates:[| 4.0; 3.0 |]
      ~routing:[| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |]
  in
  let tp = Jackson.throughputs net in
  check_close 1e-9 "node 2 sees node 1's output" 2.0 tp.(1);
  Alcotest.(check bool) "stable" true (Jackson.is_stable net);
  let joint = Jackson.joint_probability net [| 0; 0 |] in
  check_close 1e-9 "product form empty prob" (0.5 *. (1.0 /. 3.0)) joint

let test_jackson_unstable_network () =
  let net =
    Jackson.create ~external_arrivals:[| 4.0 |] ~service_rates:[| 3.0 |]
      ~routing:[| [| 0.0 |] |]
  in
  Alcotest.(check bool) "unstable" false (Jackson.is_stable net);
  Alcotest.check_raises "mean jobs raises" (Failure "Jackson: network is unstable")
    (fun () -> ignore (Jackson.mean_jobs net))

(* ------------------------------------------------------------------ *)
(* Open_loop closed forms *)

let params = { Open_loop.lambda = 15.0; mu_ch = 45.0; p_loss = 0.2; p_death = 0.5 }

let test_table1_rows_stochastic () =
  let m = Open_loop.transition_matrix ~p_loss:0.2 ~p_death:0.1 in
  Array.iter
    (fun row ->
      check_close 1e-12 "row sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 row))
    m;
  (* spot-check Table 1 entries *)
  check_close 1e-12 "I->I" (0.2 *. 0.9) m.(0).(0);
  check_close 1e-12 "I->C" (0.8 *. 0.9) m.(0).(1);
  check_close 1e-12 "I->exit" 0.1 m.(0).(2);
  check_close 1e-12 "C->I" 0.0 m.(1).(0);
  check_close 1e-12 "C->C" 0.9 m.(1).(1)

let test_total_rate_is_lambda_over_pd () =
  check_close 1e-9 "lambda_hat" (15.0 /. 0.5) (Open_loop.total_rate params);
  check_close 1e-9 "flows add up"
    (Open_loop.total_rate params)
    (Open_loop.arrival_rate_inconsistent params
    +. Open_loop.arrival_rate_consistent params)

let test_stability_boundary () =
  Alcotest.(check bool) "stable" true (Open_loop.is_stable params);
  let unstable = { params with Open_loop.p_death = 0.2 } in
  (* rho = 15/(0.2*45) = 1.67 *)
  Alcotest.(check bool) "unstable" false (Open_loop.is_stable unstable)

let test_consistent_share_closed_form () =
  (* s = (1-p)(1-d)/(1-p(1-d)) *)
  check_close 1e-12 "share" (0.8 *. 0.5 /. (1.0 -. (0.2 *. 0.5)))
    (Open_loop.consistent_share params)

let test_share_equals_markov_absorption () =
  (* The share of consistent announcements equals the probability that
     a record is ever delivered, which the Table-1 chain gives by
     absorption analysis. Cross-check the closed form against the
     generic Markov solver. *)
  List.iter
    (fun (p_loss, p_death) ->
      let m = Open_loop.transition_matrix ~p_loss ~p_death in
      (* split Exit into two conceptual outcomes by computing
         probability of ever visiting C before absorption: use the
         chain with C made absorbing. *)
      let m' = Array.map Array.copy m in
      m'.(1) <- [| 0.0; 1.0; 0.0 |];
      let chain = Markov.create m' in
      let probs = Markov.absorption_probabilities chain ~absorbing:[ 1; 2 ] in
      check_close 1e-9 "delivery probability matches absorption"
        (Open_loop.delivery_probability ~p_loss ~p_death)
        probs.(0).(0))
    [ (0.1, 0.3); (0.4, 0.2); (0.0, 0.5); (0.7, 0.9) ]

let test_share_equals_jackson_flows () =
  (* Independent derivation of lambda_C/lambda_hat via a two-node
     Jackson network: node 0 = inconsistent class, node 1 = consistent
     class, service rates irrelevant to flows. *)
  let p = params in
  let keep = 1.0 -. p.Open_loop.p_death in
  let net =
    Jackson.create
      ~external_arrivals:[| p.Open_loop.lambda; 0.0 |]
      ~service_rates:[| 1000.0; 1000.0 |]
      ~routing:
        [|
          [| p.Open_loop.p_loss *. keep; (1.0 -. p.Open_loop.p_loss) *. keep |];
          [| 0.0; keep |];
        |]
  in
  let tp = Jackson.throughputs net in
  check_close 1e-9 "lambda_I" (Open_loop.arrival_rate_inconsistent p) tp.(0);
  check_close 1e-9 "lambda_C" (Open_loop.arrival_rate_consistent p) tp.(1)

let test_consistency_monotone_in_loss () =
  let prev = ref 1.0 in
  List.iter
    (fun p_loss ->
      let c =
        Open_loop.expected_consistency { params with Open_loop.p_loss }
      in
      if c > !prev +. 1e-12 then Alcotest.fail "consistency rose with loss";
      prev := c)
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let test_consistency_monotone_in_death () =
  let prev = ref 1.0 in
  List.iter
    (fun p_death ->
      let c =
        Open_loop.expected_consistency { params with Open_loop.p_death }
      in
      if c > !prev +. 1e-12 then Alcotest.fail "consistency rose with death rate";
      prev := c)
    [ 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let test_joint_distribution_sums () =
  let total = ref 0.0 in
  for ni = 0 to 60 do
    for nc = 0 to 60 do
      total :=
        !total
        +. Open_loop.joint_probability params ~n_inconsistent:ni
             ~n_consistent:nc
    done
  done;
  check_close 1e-6 "joint law sums to 1" 1.0 !total

let test_mean_records_matches_joint () =
  (* E[n_I + n_C] from the closed form vs the joint law *)
  let mean = ref 0.0 in
  for ni = 0 to 80 do
    for nc = 0 to 80 do
      mean :=
        !mean
        +. (float_of_int (ni + nc)
           *. Open_loop.joint_probability params ~n_inconsistent:ni
                ~n_consistent:nc)
    done
  done;
  check_close 1e-3 "mean records" (Open_loop.mean_records_in_system params) !mean

let test_redundant_fraction_at_figure4_point () =
  (* Paper: "at loss rates of up to 50% and a death rate of 10%, over
     90% of the total bandwidth is wasted on redundant
     retransmissions" (approximately; the share at 0-20% loss is ~88%) *)
  let w p_loss =
    Open_loop.redundant_fraction
      { Open_loop.lambda = 20.0; mu_ch = 128.0; p_loss; p_death = 0.1 }
  in
  Alcotest.(check bool) "~88% at 20% loss" true (w 0.2 > 0.85 && w 0.2 < 0.92);
  Alcotest.(check bool) "decreasing in loss" true (w 0.5 < w 0.1)

let test_first_delivery_attempts () =
  check_close 1e-12 "lossless takes 1 attempt" 1.0
    (Open_loop.first_delivery_attempts ~p_loss:0.0 ~p_death:0.5);
  Alcotest.(check bool) "lossier takes more" true
    (Open_loop.first_delivery_attempts ~p_loss:0.5 ~p_death:0.1
    > Open_loop.first_delivery_attempts ~p_loss:0.1 ~p_death:0.1)

let test_strict_consistency_region () =
  Alcotest.(check bool) "stable has value" true
    (Open_loop.expected_consistency_strict params <> None);
  Alcotest.(check (option (float 0.0))) "unstable is None" None
    (Open_loop.expected_consistency_strict
       { params with Open_loop.p_death = 0.1 })

let test_validation_errors () =
  Alcotest.check_raises "bad loss"
    (Invalid_argument "Open_loop: p_loss must be in [0,1)") (fun () ->
      Open_loop.validate { params with Open_loop.p_loss = 1.0 });
  Alcotest.check_raises "bad death"
    (Invalid_argument "Open_loop: p_death must be in (0,1]") (fun () ->
      Open_loop.validate { params with Open_loop.p_death = 0.0 })

let () =
  Alcotest.run "softstate_queueing"
    [
      ( "linalg",
        [
          Alcotest.test_case "identity" `Quick test_solve_identity;
          Alcotest.test_case "general" `Quick test_solve_general;
          Alcotest.test_case "pivoting" `Quick test_solve_needs_pivoting;
          Alcotest.test_case "singular" `Quick test_solve_singular;
          Alcotest.test_case "random residuals" `Quick test_solve_residual_random;
        ] );
      ( "markov",
        [
          Alcotest.test_case "two-state stationary" `Quick
            test_markov_stationary_two_state;
          Alcotest.test_case "stationary fixed point" `Quick
            test_markov_stationary_is_fixed_point;
          Alcotest.test_case "validation" `Quick test_markov_row_sum_validation;
          Alcotest.test_case "gambler's ruin" `Quick test_markov_absorption_gambler;
        ] );
      ( "mm1",
        [
          Alcotest.test_case "formulas" `Quick test_mm1_formulas;
          Alcotest.test_case "distribution sums" `Quick test_mm1_distribution_sums;
          Alcotest.test_case "unstable" `Quick test_mm1_unstable;
          Alcotest.test_case "vs simulation" `Slow test_mm1_vs_simulation;
        ] );
      ( "jackson",
        [
          Alcotest.test_case "single node" `Quick test_jackson_single_node_is_mm1;
          Alcotest.test_case "feedback node" `Quick test_jackson_feedback_node;
          Alcotest.test_case "tandem" `Quick test_jackson_tandem;
          Alcotest.test_case "unstable" `Quick test_jackson_unstable_network;
        ] );
      ( "open_loop",
        [
          Alcotest.test_case "table 1" `Quick test_table1_rows_stochastic;
          Alcotest.test_case "total rate" `Quick test_total_rate_is_lambda_over_pd;
          Alcotest.test_case "stability boundary" `Quick test_stability_boundary;
          Alcotest.test_case "consistent share" `Quick
            test_consistent_share_closed_form;
          Alcotest.test_case "share = absorption probability" `Quick
            test_share_equals_markov_absorption;
          Alcotest.test_case "share = jackson flows" `Quick
            test_share_equals_jackson_flows;
          Alcotest.test_case "monotone in loss" `Quick
            test_consistency_monotone_in_loss;
          Alcotest.test_case "monotone in death" `Quick
            test_consistency_monotone_in_death;
          Alcotest.test_case "joint law sums" `Quick test_joint_distribution_sums;
          Alcotest.test_case "mean records" `Quick test_mean_records_matches_joint;
          Alcotest.test_case "figure-4 magnitude" `Quick
            test_redundant_fraction_at_figure4_point;
          Alcotest.test_case "delivery attempts" `Quick test_first_delivery_attempts;
          Alcotest.test_case "strict region" `Quick test_strict_consistency_region;
          Alcotest.test_case "validation" `Quick test_validation_errors;
        ] );
    ]
