(* Scenario fuzzer front end: generate seeded random end-to-end
   simulations, check the invariant oracles, shrink any failure to a
   minimal reproducer.

     dune exec bin/fuzz_cli.exe -- --seed 1 --count 200
     dune exec bin/fuzz_cli.exe -- --replay 'core seed=7 dur=50 ...'

   Exits non-zero iff any oracle reported a violation. *)

open Cmdliner

module Check = Softstate_check
module Scenario = Check.Scenario
module Oracle = Check.Oracle
module Fuzz = Check.Fuzz
module Experiment = Softstate_core.Experiment

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~doc:"Fuzzer seed; fixes the whole scenario sequence.")

let count_arg =
  Cli_arg.opt Cli_arg.count [ "count"; "n" ] 200 "Scenarios to generate."

let max_shrink_arg =
  Arg.(
    value & opt int 200
    & info [ "max-shrink" ]
        ~doc:"Candidate executions the shrinker may spend per failure.")

let oracle_arg =
  let doc =
    Printf.sprintf
      "Comma-separated oracles to run (default: all). Available: %s."
      (String.concat ", " Oracle.names)
  in
  Arg.(value & opt string "" & info [ "oracle" ] ~doc)

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"Append one JSON line per failure to $(docv).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCENARIO"
        ~doc:
          "Run a single scenario given in Scenario.to_string form (as \
           printed in reproducers) instead of fuzzing.")

let inject_bug_arg =
  Arg.(
    value & flag
    & info [ "inject-bug" ]
        ~doc:
          "Mutation smoke test: corrupt every outcome before the oracles \
           see it (see $(b,--inject-mode)), and plant a Random.self_init \
           call in a scratch copy of a source file (the determinism lint \
           must catch it). The run still exits non-zero; exit 3 means a \
           smoke check itself failed.")

let inject_mode_arg =
  Arg.(
    value
    & opt (enum [ ("counters", `Counters); ("backlog", `Backlog) ]) `Counters
    & info [ "inject-mode" ] ~docv:"MODE"
        ~doc:
          "Which bug $(b,--inject-bug) plants. $(b,counters) inflates the \
           delivered-packet counter (the conservation oracle must catch \
           it); $(b,backlog) splices a deterministically accelerating \
           synthetic NACK storm into every core trace (the backlog \
           stability oracle must catch it).")

let guided_arg =
  Arg.(
    value & flag
    & info [ "guided" ]
        ~doc:
          "Coverage-guided generation: pick each scenario among a few \
           candidate draws from its own seed, preferring unseen feature \
           buckets. Off by default (the historical uniform stream).")

let coverage_arg =
  Arg.(
    value & flag
    & info [ "coverage" ]
        ~doc:"Print the run's coverage report (features, events, branches).")

let coverage_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "coverage-out" ] ~docv:"FILE"
        ~doc:"Write the serialized coverage table to $(docv).")

let min_coverage_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-coverage" ] ~docv:"FRAC"
        ~doc:
          "Fail (exit 1) unless the run's feature-bucket coverage fraction \
           reaches $(docv).")

let frontier_arg =
  Arg.(
    value & flag
    & info [ "frontier" ]
        ~doc:
          "Instead of fuzzing, sweep the multicast slotting/damping \
           parameter grid under a fixed lossy flash workload and print a \
           NACK-stability frontier table judged by the backlog oracle's \
           measure.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Print a dot per scenario to stderr.")

(* The planted bug: claim a few more deliveries than were sent, the
   exact class of accounting error the conservation oracle exists to
   catch. *)
let corrupt_delivered outcome =
  match outcome.Scenario.payload with
  | Scenario.Core_result r ->
      { outcome with
        Scenario.payload =
          Scenario.Core_result
            { r with
              Experiment.packets_delivered =
                r.Experiment.packets_delivered + 100 } }
  | Scenario.Gossip_result r ->
      { outcome with
        Scenario.payload =
          Scenario.Gossip_result
            { r with
              Softstate_core.Gossip.deliveries =
                r.Softstate_core.Gossip.deliveries + 100 } }
  | Scenario.Sstp_result _ -> outcome

module Trace = Softstate_obs.Trace

(* The planted NACK storm: splice a synthetic feedback series into the
   trace whose per-quarter volume explodes toward the horizon and
   dwarfs the run's real repair count — the exact signature the
   backlog stability oracle exists to catch. Purely a function of the
   outcome, so replay determinism is preserved. *)
let corrupt_backlog outcome =
  match outcome.Scenario.payload with
  | Scenario.Sstp_result _ | Scenario.Gossip_result _ -> outcome
  | Scenario.Core_result _ when outcome.Scenario.horizon <= 0.0 -> outcome
  | Scenario.Core_result _ ->
      let horizon = outcome.Scenario.horizon in
      let repairs =
        List.fold_left
          (fun n ev ->
            match ev.Trace.kind with Trace.Repair -> n + 1 | _ -> n)
          0 outcome.Scenario.events
      in
      (* enough volume that NACKs dwarf repairs even after the real
         NACKs are counted alongside, with an 80% last-quarter share *)
      let total = max 512 (8 * repairs) in
      let quarter_share = [| 0.02; 0.05; 0.13; 0.80 |] in
      let synth = ref [] in
      Array.iteri
        (fun q share ->
          let n = int_of_float (share *. float_of_int total) in
          let q_start = float_of_int q *. horizon /. 4.0 in
          for i = 0 to n - 1 do
            let time =
              q_start
              +. (float_of_int i +. 0.5) /. float_of_int n *. horizon /. 4.0
            in
            synth :=
              Trace.event ~time ~src:"injected" ~detail:"backlog-storm"
                Trace.Nack
              :: !synth
          done)
        quarter_share;
      let by_time a b = compare a.Trace.time b.Trace.time in
      let events =
        List.merge by_time outcome.Scenario.events
          (List.sort by_time !synth)
      in
      { outcome with Scenario.events }

let parse_oracles s =
  if s = "" then []
  else List.filter (fun x -> x <> "") (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* The stability frontier: a fixed lossy multicast workload whose
   repair loop goes supercritical exactly when NACK damping is off and
   the per-transmission loss exposure (loss x receivers) exceeds one.
   Every retransmission consumes a fresh sequence number, so each lost
   repair breeds fresh gap NACKs; damping collapses the per-loss NACK
   group to roughly one request and keeps the branching ratio under
   one. The sweep holds the workload fixed and walks the
   slotting/damping knobs, judging each cell with the same measure the
   backlog oracle enforces. *)

let frontier_config ~suppression ~nack_slot ~loss =
  { Experiment.default with
    Experiment.duration = 4.0;
    lambda_kbps = 1.0;
    size_bits = 1000;
    protocol =
      Experiment.Multicast
        { receivers = 8; mu_hot_kbps = 1000.0; mu_cold_kbps = 2.0;
          mu_fb_kbps = 100.0; nack_slot; nack_bits = 100; suppression };
    loss = Experiment.Bernoulli loss;
    death = Softstate_core.Base.Lifetime_fixed 600.0;
    expiry = Softstate_core.Base.No_expiry;
    record_series = true;
    obs = None }

let frontier_losses = [ 0.1; 0.2; 0.3; 0.4 ]

let run_frontier () =
  Printf.printf
    "NACK-stability frontier (8 receivers, 1 arrival/s, 4 s horizon)\n";
  Printf.printf "cell: NACK issues in the last quarter, * = backlog oracle \
                 flags the run unstable\n\n";
  Printf.printf "%-10s %-8s" "damping" "slot";
  List.iter (fun p -> Printf.printf " %11s" (Printf.sprintf "p=%.2f" p))
    frontier_losses;
  print_newline ();
  let unstable_cells = ref 0 in
  List.iter
    (fun (suppression, nack_slot, label) ->
      Printf.printf "%-10s %-8s"
        (if suppression then "on" else "off")
        label;
      List.iter
        (fun loss ->
          let c = frontier_config ~suppression ~nack_slot ~loss in
          let outcome = Scenario.run (Scenario.Core c) in
          let cell =
            match Oracle.backlog_measure outcome with
            | None -> "-"
            | Some m ->
                let q4 = m.Oracle.b_nack_quarters.(3) in
                if Oracle.backlog_unstable m then begin
                  incr unstable_cells;
                  Printf.sprintf "%d*" q4
                end
                else string_of_int q4
          in
          Printf.printf " %11s" cell)
        frontier_losses;
      print_newline ())
    [ (true, 0.005, "0.005"); (true, 0.05, "0.05"); (true, 0.5, "0.5");
      (false, 0.5, "-") ];
  Printf.printf
    "\n%d unstable cell(s); damping off with loss x receivers > 1 is the \
     supercritical regime\n"
    !unstable_cells;
  0

(* ------------------------------------------------------------------ *)
(* Lint mutation smoke: the same guard for the static pass that the
   corrupted counters are for the oracles. Plant an unseeded-RNG call
   in a scratch copy of a real source file; if the determinism lint
   does not report D001 at the planted line, the pass has rotted. *)

module Lint = Softstate_lint

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_smoke () =
  let base =
    let candidate = Filename.concat "lib" (Filename.concat "util" "ewma.ml") in
    if Sys.file_exists candidate then read_file candidate
    else "let tick x = x + 1\n"
  in
  let base = if String.length base > 0 && base.[String.length base - 1] = '\n'
    then base else base ^ "\n" in
  let planted_line =
    1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 base
  in
  let planted = base ^ "let () = Random.self_init ()\n" in
  let scratch = Filename.temp_file "lint_smoke" ".ml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove scratch with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin scratch in
      output_string oc planted;
      close_out oc;
      let clean = Lint.Driver.scan_source ~file:"lib/scratch/smoke.ml" base in
      let findings = Lint.Driver.scan_paths [ scratch ] in
      let caught =
        List.exists
          (fun f ->
            f.Lint.Finding.rule = "D001"
            && f.Lint.Finding.line = planted_line)
          findings
      in
      let cli_caught =
        (* The built lint_cli.exe sits next to this executable; assert
           the user-facing entry point also exits non-zero on it. *)
        let exe =
          Filename.concat (Filename.dirname Sys.executable_name)
            "lint_cli.exe"
        in
        if Sys.file_exists exe then
          Sys.command
            (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe)
               (Filename.quote scratch))
          <> 0
        else true
      in
      if clean <> [] then begin
        Printf.eprintf
          "lint-smoke: FAILED — unplanted copy already has findings\n";
        false
      end
      else if not caught then begin
        Printf.eprintf
          "lint-smoke: FAILED — planted Random.self_init at line %d not \
           reported\n"
          planted_line;
        false
      end
      else if not cli_caught then begin
        Printf.eprintf "lint-smoke: FAILED — lint_cli.exe exited 0\n";
        false
      end
      else begin
        Printf.printf
          "lint-smoke: planted Random.self_init caught at line %d\n"
          planted_line;
        true
      end)

(* Same guard for the whole-program phase: plant a shared-ref-across-
   domains race (once at top level, once inside a functor body) and a
   hot-path closure, and an interface record field no code reads, in a
   scratch tree (under a lib/ segment, which is what puts the R/A/U
   rules in scope) and assert R001, an A-rule and U003 fire at the
   planted lines, with a non-zero CLI exit. *)
let race_smoke () =
  let dir = Filename.temp_file "lint_race" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let libdir = Filename.concat dir "lib" in
  Sys.mkdir libdir 0o755;
  let race_line = 2 and alloc_line = 3 and field_line = 3 in
  let functor_race_line = 3 in
  let files =
    [ ( "race_smoke.ml",
        "let shared = ref 0\n\
         let race () = Domain.spawn (fun () -> incr shared)\n\
         let[@hot] hot_sum xs = List.fold_left (fun a b -> a + b) 0 xs\n" );
      ( "functor_smoke.ml",
        "module Make (X : sig end) = struct\n\
        \  let shared = ref 0\n\
        \  let race () = Domain.spawn (fun () -> incr shared)\n\
         end\n" );
      ("field_smoke.mli", "type t = {\n  seen : int;\n  unread : int;\n}\n");
      ( "field_smoke.ml",
        "type t = { seen : int; unread : int }\nlet seen r = r.seen\n" ) ]
    |> List.map (fun (name, src) -> (Filename.concat libdir name, src))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (file, _) -> try Sys.remove file with Sys_error _ -> ())
        files;
      (try Sys.rmdir libdir with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (file, src) ->
          let oc = open_out_bin file in
          output_string oc src;
          close_out oc)
        files;
      let findings = Lint.Driver.scan_paths [ dir ] in
      let fired ?(file = "race_smoke.ml") rule line =
        List.exists
          (fun f ->
            f.Lint.Finding.rule = rule && f.Lint.Finding.line = line
            && Filename.basename f.Lint.Finding.file = file)
          findings
      in
      let race_caught = fired "R001" race_line in
      let functor_race_caught =
        fired ~file:"functor_smoke.ml" "R001" functor_race_line
      in
      let alloc_caught =
        List.exists (fun r -> fired r alloc_line) [ "A001"; "A002"; "A004" ]
      in
      let field_caught = fired ~file:"field_smoke.mli" "U003" field_line in
      let cli_caught =
        let exe =
          Filename.concat (Filename.dirname Sys.executable_name)
            "lint_cli.exe"
        in
        if Sys.file_exists exe then
          Sys.command
            (Printf.sprintf "%s --rules R,A,U003 %s >/dev/null 2>&1"
               (Filename.quote exe) (Filename.quote dir))
          <> 0
        else true
      in
      if not race_caught then begin
        Printf.eprintf
          "race-smoke: FAILED — planted shared-ref race at line %d not \
           reported as R001\n"
          race_line;
        false
      end
      else if not functor_race_caught then begin
        Printf.eprintf
          "race-smoke: FAILED — planted shared-ref race in a functor body \
           at line %d not reported as R001\n"
          functor_race_line;
        false
      end
      else if not alloc_caught then begin
        Printf.eprintf
          "race-smoke: FAILED — planted hot-path closure at line %d not \
           reported by any A-rule\n"
          alloc_line;
        false
      end
      else if not field_caught then begin
        Printf.eprintf
          "race-smoke: FAILED — planted unread field at line %d not \
           reported as U003\n"
          field_line;
        false
      end
      else if not cli_caught then begin
        Printf.eprintf "race-smoke: FAILED — lint_cli.exe exited 0\n";
        false
      end
      else begin
        Printf.printf
          "race-smoke: planted race caught as R001 at line %d and in a \
           functor body at line %d, hot-path allocation at line %d, unread \
           field as U003 at line %d\n"
          race_line functor_race_line alloc_line field_line;
        true
      end)

let run seed count max_shrink oracle log replay inject_bug inject_mode
    progress guided coverage coverage_out min_coverage frontier =
  let oracles = parse_oracles oracle in
  let corrupt =
    if not inject_bug then None
    else
      match inject_mode with
      | `Counters -> Some corrupt_delivered
      | `Backlog -> Some corrupt_backlog
  in
  if frontier then run_frontier ()
  else if inject_bug && not (lint_smoke () && race_smoke ()) then 3
  else
  match replay with
  | Some spec -> (
      match Scenario.of_string spec with
      | Error e ->
          Printf.eprintf "bad scenario: %s\n" e;
          2
      | Ok scenario -> (
          match Fuzz.check_scenario ?corrupt ~oracles scenario with
          | [] ->
              print_endline "ok: all oracles passed";
              0
          | vs ->
              List.iter
                (fun v ->
                  Printf.printf "%-12s %s\n" v.Oracle.oracle v.Oracle.message)
                vs;
              1))
  | None ->
      let log_chan = Option.map open_out log in
      let log_fn =
        Option.map
          (fun oc line ->
            output_string oc line;
            flush oc)
          log_chan
      in
      let on_progress =
        if progress then
          Some
            (fun i ->
              prerr_char '.';
              if (i + 1) mod 50 = 0 then Printf.eprintf " %d\n" (i + 1);
              flush stderr)
        else None
      in
      let stats =
        Fuzz.run ?corrupt ~oracles ~max_shrink ?log:log_fn ?on_progress
          ~guided ~seed ~count ()
      in
      Option.iter close_out log_chan;
      Printf.printf "%d scenarios, %d runs, %d failures\n"
        stats.Fuzz.scenarios stats.Fuzz.runs
        (List.length stats.Fuzz.failures);
      let cov = stats.Fuzz.coverage in
      Printf.printf
        "coverage: %d/%d feature buckets (%.0f%%), %d/%d event kinds, \
         %d/%d oracle branches%s\n"
        (List.length (Check.Coverage.seen_features cov))
        (List.length Scenario.feature_catalogue)
        (100.0 *. Check.Coverage.feature_fraction cov)
        (List.length (Check.Coverage.seen_events cov))
        (List.length Check.Coverage.event_catalogue)
        (List.length (Check.Coverage.seen_branches cov))
        (List.length Oracle.branches)
        (if guided then " [guided]" else "");
      if coverage then print_string (Check.Coverage.report cov);
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Check.Coverage.to_string cov);
          close_out oc)
        coverage_out;
      let coverage_ok =
        match min_coverage with
        | None -> true
        | Some frac ->
            let got = Check.Coverage.feature_fraction cov in
            if got < frac then begin
              Printf.printf
                "coverage gate: FAILED — feature coverage %.3f below \
                 required %.3f\n"
                got frac;
              false
            end
            else begin
              Printf.printf "coverage gate: ok (%.3f >= %.3f)\n" got frac;
              true
            end
      in
      List.iter
        (fun f ->
          Printf.printf "\nscenario %d failed:\n" f.Fuzz.index;
          List.iter
            (fun v ->
              Printf.printf "  %-12s %s\n" v.Oracle.oracle v.Oracle.message)
            f.Fuzz.violations;
          Printf.printf "  shrunk (%d runs): %s\n" f.Fuzz.shrink_runs
            (Scenario.to_string f.Fuzz.shrunk);
          Printf.printf "  reproduce with:\n    %s\n" (Fuzz.reproducer f))
        stats.Fuzz.failures;
      if stats.Fuzz.failures = [] && coverage_ok then 0 else 1

let cmd =
  let doc = "fuzz the soft-state simulator with invariant oracles" in
  let info = Cmd.info "softstate-fuzz" ~doc in
  Cmd.v info
    Term.(
      const run $ seed_arg $ count_arg $ max_shrink_arg $ oracle_arg
      $ log_arg $ replay_arg $ inject_bug_arg $ inject_mode_arg
      $ progress_arg $ guided_arg $ coverage_arg $ coverage_out_arg
      $ min_coverage_arg $ frontier_arg)

let () = exit (Cmd.eval' cmd)
