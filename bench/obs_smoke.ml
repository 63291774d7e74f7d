(* Observability smoke benchmark: run the same lossy two-queue
   experiment bare (no obs context), with an obs context whose trace
   sink is disabled, and with tracing into a counting sink; report the
   two overheads and record the numbers to BENCH_obs.json for trend
   tracking.

   The disabled-sink row is the one the obs fast path is judged on:
   every instrumented component hoists the "any sink attached?" check
   into a [traced] flag at creation, so an untraced run must skip
   event construction entirely and stay within ~5% of the bare run.
   The counting-sink row is the honest price of tracing when it is
   switched on (event construction + sink dispatch per event).

   The untraced overhead is the median, over [pairs] (bare, untraced)
   pairs, of each pair's ratio of its two back-to-back runs, the
   order alternating from pair to pair. On a shared host one run's
   time varies by +-25% from the next, so a best-of-3 against
   best-of-3 failed the +3% bound on unchanged code about one time in
   four, and so did the median of 11 pairs of 6000 s runs. Short runs
   (1000 s simulated, about 0.07 s of wall time) keep a pair's two
   runs close in time, so the drift mostly cancels within a pair, and
   61 of them give the median a spread of about +-2%. Untraced obs
   costs a fixed set-up and nothing per event, so a shorter run only
   makes the fixed part weigh more. Every timed run starts after a
   full major collection, so none pays for its predecessor's
   garbage. *)

module E = Softstate_core.Experiment
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace
module Json = Softstate_obs.Json

let sim_duration = 1000.0
let pairs = 61

let config ~obs =
  { E.default with
    E.duration = sim_duration;
    loss = E.Bernoulli 0.3;
    protocol = E.Two_queue { mu_hot_kbps = 20.0; mu_cold_kbps = 25.0 };
    obs }

let run () =
  Tables.header "Observability smoke (BENCH_obs.json)";
  let bare_run () = E.run (config ~obs:None) in
  (* obs context attached, but no trace sink: the fast-path case *)
  let null_run () = E.run (config ~obs:(Some (Obs.create ()))) in
  let events = ref 0 in
  let counting =
    Trace.filter
      (fun _ ->
        incr events;
        false)
      Trace.null
  in
  let traced_run () =
    events := 0;
    let obs = Obs.create ~trace:counting () in
    E.run (config ~obs:(Some obs))
  in
  (* warm-up every configuration: fault in code, grow the GC heap *)
  ignore (bare_run ());
  ignore (null_run ());
  let r = traced_run () in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let bare = Array.make pairs 0.0 and null = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    if i mod 2 = 0 then begin
      bare.(i) <- time bare_run;
      null.(i) <- time null_run
    end
    else begin
      null.(i) <- time null_run;
      bare.(i) <- time bare_run
    end
  done;
  let traced = Array.init pairs (fun _ -> time traced_run) in
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let base_s = median bare and null_s = median null
  and traced_s = median traced in
  let events_per_s =
    if traced_s > 0.0 then float_of_int !events /. traced_s else 0.0
  in
  let null_overhead =
    median (Array.init pairs (fun i -> (null.(i) /. bare.(i)) -. 1.0))
  in
  let traced_overhead =
    if base_s > 0.0 then (traced_s -. base_s) /. base_s else 0.0
  in
  Printf.printf "bare run (no obs)       %.3f s (median of %d)\n" base_s pairs;
  Printf.printf
    "obs, sink disabled      %.3f s (overhead %+.1f%%, median of %d pairs)\n"
    null_s (100.0 *. null_overhead) pairs;
  Printf.printf "obs, counting sink      %.3f s (overhead %+.1f%%)\n" traced_s
    (100.0 *. traced_overhead);
  Printf.printf "trace events emitted    %d (%.0f events/s wall)\n" !events
    events_per_s;
  Printf.printf "final consistency       %.4f\n" r.E.final_consistency;
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Json.obj
       [ ("experiment", Json.string "obs-smoke");
         ("sim_duration_s", Json.float sim_duration);
         ("pairs", Json.int pairs);
         ("untraced_wall_s", Json.float base_s);
         ("null_sink_wall_s", Json.float null_s);
         ("traced_wall_s", Json.float traced_s);
         ("trace_events", Json.int !events);
         ("events_per_wall_s", Json.float events_per_s);
         ("untraced_overhead", Json.float null_overhead);
         ("tracing_overhead", Json.float traced_overhead) ]);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_obs.json";
  (* CI gate (OBS_GATE=1): an attached-but-untraced obs context must
     stay within +3% of the bare run — the contract every new emit
     site is written against (hoist the [traced] check, build no
     event). Local runs are not gated: a busy laptop produces noise
     this threshold would misread. *)
  if Sys.getenv_opt "OBS_GATE" <> None && null_overhead > 0.03 then begin
    Printf.eprintf
      "FAIL: attached-but-untraced overhead %+.1f%% exceeds the +3%% gate\n"
      (100.0 *. null_overhead);
    exit 1
  end
