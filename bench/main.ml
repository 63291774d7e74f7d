(* Experiment harness: regenerates every table and figure of the
   paper's evaluation, the cross-validation studies, the ablations,
   and the SSTP benchmarks.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- --exp fig9
     dune exec bench/main.exe -- --jobs 4 --exp fig5
     dune exec bench/main.exe -- --list

   Experiment ids match DESIGN.md section 2. --jobs N fans the
   parallelisable sweeps across N domains (0 = all recommended);
   results are identical for every job count. *)

let experiments =
  [
    ("table1", "Table 1: state-change probabilities", Analytic.table1);
    ("fig3", "Figure 3: analytic consistency vs loss", Analytic.fig3);
    ("fig4", "Figure 4: redundant bandwidth vs loss", Analytic.fig4);
    ("fig5", "Figure 5: two-queue consistency vs mu_hot", Sims.fig5);
    ("fig6", "Figure 6: receive latency vs cold/hot", Sims.fig6);
    ("fig8", "Figure 8: consistency vs time under feedback", Sims.fig8);
    ("fig9", "Figure 9: consistency vs feedback share", Sims.fig9);
    ("fig10", "Figure 10: consistency vs hot share (10% loss)", Sims.fig10);
    ("fig11", "Figure 11: the knee across loss rates", Sims.fig11);
    ("validate", "Simulation vs closed-form cross-check", Sims.validate);
    ("burst", "Loss-pattern insensitivity (Gilbert-Elliott)", Sims.burst);
    ("ablate-sched", "Ablation: proportional-share mechanism", Sims.ablate_sched);
    ("ablate-death", "Ablation: death models", Sims.ablate_death);
    ("multicast", "Multicast: NACK implosion vs suppression", Sims.multicast);
    ("timers", "Soft-state expiry timers (scalable timers)", Sims.timers);
    ("sstp-sync", "SSTP: cold-start sync vs flat baseline", Sstp_bench.sync);
    ("sstp-repair", "SSTP: single-leaf repair vs store size", Sstp_bench.repair);
    ("sstp-continuum", "SSTP: the reliability continuum", Sstp_bench.continuum);
    ("sstp-group", "SSTP: multicast group scaling", Sstp_bench.group);
    ("obs-smoke", "Observability: traced-run throughput", Obs_smoke.run);
    ("perf", "Performance suite: flat footprint + parallel sweep", Perf.run);
    ("soak", "Bounded-memory soak: 10^6 keys, heap-flatness gate", Soak.run);
  ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-16s %s\n" id desc)
    experiments

let run_one id =
  match List.find_opt (fun (id', _, _) -> id' = id) experiments with
  | Some (_, _, f) -> f ()
  | None ->
      Printf.eprintf "unknown experiment %S\n" id;
      list_experiments ();
      exit 1

let usage () =
  prerr_endline "usage: main.exe [--jobs N] [--list | --exp <id> [<id> ...]]";
  exit 1

let () =
  let args = Array.to_list Sys.argv in
  (* peel off a leading --jobs N (applies to every experiment run) *)
  let args =
    match args with
    | argv0 :: "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some jobs ->
            Tables.jobs := jobs;
            Perf.jobs :=
              (if jobs <= 0 then Softstate_sim.Parallel.recommended_jobs ()
               else jobs);
            argv0 :: rest
        | None -> usage ())
    | _ -> args
  in
  match args with
  | _ :: "--list" :: _ -> list_experiments ()
  | _ :: "--exp" :: ids when ids <> [] -> List.iter run_one ids
  | [ _ ] ->
      print_endline
        "softstate reproduction harness - regenerating all paper artefacts";
      print_endline "(run with --list to see individual experiment ids)";
      List.iter (fun (_, _, f) -> f ()) experiments
  | _ -> usage ()
