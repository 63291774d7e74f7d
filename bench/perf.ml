(* Performance suite (BENCH_perf.json).

   End-to-end timing and its gate live in the benchmark ledger
   (bench/ledger, `ledger.exe compare`). This suite keeps only the two
   rows no ledger workload covers:
   - flat-topology words per node at 2*10^4 nodes, gated in quick mode
     at 1.3x the committed baseline: the value is seed-deterministic,
     and the ledger reports it on gossip-flat only as an unbounded
     per-layer metric;
   - a 16-replication sweep with --jobs 1 versus --jobs N (wall clock,
     reported, not gated): every ledger child runs on a single domain,
     so nothing else measures the domain fan-out.

   Quick mode (PERF_QUICK=1) shrinks the sweep for CI and writes
   BENCH_perf_quick.json. *)

module E = Softstate_core.Experiment
module Flat = Softstate_net.Flat_topology
module Rng = Softstate_util.Rng
module Json = Softstate_obs.Json

let quick () = Sys.getenv_opt "PERF_QUICK" <> None
let wall () = Unix.gettimeofday ()

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

let jobs = ref 4

(* Live words per node of a sparse random flat graph (mean degree 4).
   The build is seed-deterministic, so any growth is a real footprint
   regression, not noise. *)
let flat_nodes = 20_000

let words_per_node () =
  let before = Memprobe.live_words () in
  let flat =
    Flat.random ~rng:(Rng.create 5) ~nodes:flat_nodes
      ~edge_prob:(4.0 /. float_of_int flat_nodes) ()
  in
  let delta = Memprobe.live_words () - before in
  (* keeps [flat] reachable until after the second measurement *)
  ignore (Flat.node_count flat);
  float_of_int delta /. float_of_int flat_nodes

let memory_gate words_per_node =
  let baseline =
    match open_in "BENCH_perf.json" with
    | exception Sys_error _ -> None
    | ic -> (
        let line = input_line ic in
        close_in ic;
        match Json.parse_flat line with
        | Error _ -> None
        | Ok fields -> (
            match Json.member "flat_words_per_node" fields with
            | Some (Json.Number b) when b > 0.0 -> Some b
            | _ -> None))
  in
  match baseline with
  | None -> print_endline "no flat_words_per_node baseline; skipping gate"
  | Some baseline ->
      let ceiling = 1.3 *. baseline in
      Printf.printf
        "memory gate: %.1f words/node vs baseline %.1f (ceiling %.1f)\n"
        words_per_node baseline ceiling;
      if words_per_node > ceiling then begin
        prerr_endline
          "FAIL: flat-topology words/node regressed >30% vs baseline";
        exit 1
      end

let run () =
  Tables.header "Performance suite (BENCH_perf.json)";
  let q = quick () in
  Printf.printf "domains available: %d   jobs: %d   quick: %b\n"
    (Softstate_sim.Parallel.recommended_jobs ())
    !jobs q;

  (* 1. flat-topology footprint *)
  let wpn = words_per_node () in
  Printf.printf "flat random:%d  %.1f words/node\n" flat_nodes wpn;

  (* 2. parallel replication sweep: 16 fig5-style replications,
     jobs 1 vs N *)
  let reps = 16 in
  let sweep_cfg =
    { E.default with
      E.duration = (if q then 400.0 else 1500.0);
      loss = E.Bernoulli 0.3;
      protocol = E.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 } }
  in
  let s1, wall1 =
    timed (fun () -> fst (E.run_many ~jobs:1 ~replications:reps sweep_cfg))
  in
  let domain_stats = ref None in
  let _, walln =
    timed (fun () ->
        E.run_many ~jobs:!jobs ~replications:reps
          ~domain_report:(fun s -> domain_stats := Some s)
          sweep_cfg)
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
  Printf.printf "sweep        consistency %.4f +/- %.4f\n"
    s1.E.consistency_mean s1.E.consistency_ci95;

  if q then memory_gate wpn;

  let out = if q then "BENCH_perf_quick.json" else "BENCH_perf.json" in
  let oc = open_out out in
  output_string oc
    (Json.obj
       [ ("experiment", Json.string "perf");
         ("quick", Json.int (if q then 1 else 0));
         ("domains_available",
          Json.int (Softstate_sim.Parallel.recommended_jobs ()));
         ("flat_nodes", Json.int flat_nodes);
         ("flat_words_per_node", Json.float wpn);
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
            | Some st -> PS.mode_name st.PS.mode)) ]);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out
