(* Bounded-memory soak (BENCH_soak.json).

   Drives a bare Base instance — no protocol queueing, announcements
   delivered directly — with a fixed-lifetime workload tuned for a
   steady-state live set of 10^6 keys under the per-key expiry timers
   ([Refresh_wheel]: at most one engine calendar event per armed copy,
   and none for a copy whose deadline falls after its key's death; the
   fixed-lifetime deaths queue in one engine lane), then gates on
   live-heap *flatness*: after warmup, a least-squares fit of Gc live
   words against simulated time must have negligible slope. Any
   per-key structure that leaks (receiver rows, expiry timers, death
   lane, seq maps, engine calendar entries) shows up as a positive
   drift over the hours-long measurement window.

   Shape of the run:
   - arrivals: Poisson at [keys/ttl] per second, each record living
     exactly [ttl] seconds, so the live population ramps linearly for
     one ttl and is then stationary at ~[keys];
   - refreshes: once per simulated second, [live/refresh_gap] keys
     drawn uniformly from the live table are re-announced to receiver
     0, giving every key an approximately Poisson refresh process with
     mean interval [refresh_gap]. With [Refresh_wheel {multiple = 3}]
     a silent key's receiver copy expires after ~3 estimated
     intervals, so both false expiries (live at sender) and stale
     purges (dead at sender) are exercised continuously;
   - sampling: every [sample_period] simulated seconds a full major
     collection runs and [Gc.stat] live words are recorded.

   SOAK_QUICK=1 shrinks the run to ~5*10^4 keys / 15 simulated
   minutes for CI; the flatness gate is scale-free (drift is measured
   as a fraction of the mean heap), so the same tolerance applies. *)

module Rng = Softstate_util.Rng
module Engine = Softstate_sim.Engine
module Base = Softstate_core.Base
module Table = Softstate_core.Table
module Workload = Softstate_core.Workload
module Consistency = Softstate_core.Consistency
module Json = Softstate_obs.Json

let quick () = Sys.getenv_opt "SOAK_QUICK" <> None

(* Simple least squares over (t, words) pairs: slope in words per
   simulated second, plus the mean level for normalising drift. *)
let fit samples =
  let n = float_of_int (List.length samples) in
  let sx = List.fold_left (fun a (t, _) -> a +. t) 0.0 samples in
  let sy = List.fold_left (fun a (_, w) -> a +. float_of_int w) 0.0 samples in
  let xbar = sx /. n and ybar = sy /. n in
  let sxx, sxy =
    List.fold_left
      (fun (sxx, sxy) (t, w) ->
        let dx = t -. xbar in
        (sxx +. (dx *. dx), sxy +. (dx *. (float_of_int w -. ybar))))
      (0.0, 0.0) samples
  in
  let slope = if sxx > 0.0 then sxy /. sxx else 0.0 in
  (slope, ybar)

let drift_tolerance = 0.10

let run () =
  let q = quick () in
  let keys_target = if q then 50_000 else 1_000_000 in
  let ttl = if q then 300.0 else 3600.0 in
  let duration = 3.0 *. ttl in
  (* one ttl of population ramp plus a quarter for the refresh-gap
     EWMAs and the armed-timer fraction to reach their stationary
     distribution *)
  let warmup = 1.25 *. ttl in
  let refresh_gap = if q then 60.0 else 300.0 in
  let sample_period = if q then 10.0 else 300.0 in
  let multiple = 3.0 in

  let engine = Engine.create () in
  let tracker = Consistency.create ~now:0.0 () in
  let workload =
    Workload.create
      ~arrival_rate:(float_of_int keys_target /. ttl)
      ~size_bits:1000 ()
  in
  let base =
    Base.create ~engine ~rng:(Rng.create 77) ~workload
      ~death:(Base.Lifetime_fixed ttl)
      ~expiry:(Base.Refresh_wheel { multiple })
      ~tracker ()
  in
  let seq = ref 0 in
  let announce r =
    incr seq;
    Base.deliver base ~now:(Engine.now engine) ~receiver:0
      (Base.announce_of base ~seq:!seq r)
  in
  Base.set_hooks base ~on_arrival:announce ~on_death:(fun _ -> ());

  let pick_rng = Rng.create 78 in
  let (_ : unit -> bool) =
    Engine.every engine ~period:1.0 (fun _engine ->
         let tbl = Base.table base in
         (* expected live/refresh_gap announcements this second; carry
            the fractional part as a Bernoulli draw so the long-run
            per-key refresh rate is exact *)
         let mean = float_of_int (Table.live_count tbl) /. refresh_gap in
         let whole = int_of_float mean in
         let extra =
           if Rng.float pick_rng < mean -. float_of_int whole then 1 else 0
         in
         for _ = 1 to whole + extra do
           match Table.random_key tbl pick_rng with
           | Some key -> (
               match Table.find tbl key with
               | Some r -> announce r
               | None -> ())
           | None -> ()
         done)
  in

  let samples = ref [] (* (sim time, live words), newest first *) in
  let (_ : unit -> bool) =
    Engine.every engine ~period:sample_period (fun engine ->
        samples :=
          (Engine.now engine, Memprobe.live_words_major ()) :: !samples)
  in

  Base.start base;
  let wall0 = Unix.gettimeofday () in
  Engine.run ~until:duration engine;
  let wall_s = Unix.gettimeofday () -. wall0 in

  let all = List.rev !samples in
  let window = List.filter (fun (t, _) -> t >= warmup) all in
  (match window with
  | [] | [ _ ] -> failwith "soak: not enough post-warmup samples"
  | _ -> ());
  let slope, mean_words = fit window in
  let t_first = fst (List.hd window) in
  let t_last = List.fold_left (fun _ (t, _) -> t) t_first window in
  let span = t_last -. t_first in
  (* drift over the whole measurement window, as a fraction of the
     mean live heap: scale-free, so quick and full share the gate *)
  let drift = slope *. span /. mean_words in
  let live_end = Table.live_count (Base.table base) in
  let pass = Float.abs drift <= drift_tolerance in

  Printf.printf "soak %s: %d keys target, ttl %.0f s, %.0f s simulated\n"
    (if q then "quick" else "full")
    keys_target ttl duration;
  Printf.printf
    "  live heap %.2f MB mean over [%.0f, %.0f] s  (%d samples)\n"
    (float_of_int (Memprobe.words_to_bytes 1) *. mean_words /. 1e6)
    t_first t_last (List.length window);
  Printf.printf "  slope %+.1f words/s  drift %+.4f of mean over %.0f s\n"
    slope drift span;
  Printf.printf
    "  live keys at end %d  false expiries %d  stale purged %d  (%.1f s wall)\n"
    live_end (Base.false_expiries base) (Base.stale_purged base) wall_s;
  Printf.printf "  heap flatness gate (|drift| <= %.2f): %s\n" drift_tolerance
    (if pass then "OK" else "FAIL");

  let out = if q then "BENCH_soak_quick.json" else "BENCH_soak.json" in
  let oc = open_out out in
  output_string oc
    (Json.obj
       [
         ("mode", Json.string (if q then "quick" else "full"));
         ("keys_target", Json.int keys_target);
         ("ttl_s", Json.float ttl);
         ("duration_s", Json.float duration);
         ("warmup_s", Json.float warmup);
         ("refresh_gap_s", Json.float refresh_gap);
         ("expiry_multiple", Json.float multiple);
         ("sample_period_s", Json.float sample_period);
         ("samples", Json.int (List.length window));
         ("mean_live_words", Json.float mean_words);
         ("slope_words_per_s", Json.float slope);
         ("drift_fraction", Json.float drift);
         ("drift_tolerance", Json.float drift_tolerance);
         ("live_keys_end", Json.int live_end);
         ("false_expiries", Json.int (Base.false_expiries base));
         ("stale_purged", Json.int (Base.stale_purged base));
         ("consistency_avg",
          Json.float (Consistency.average tracker ~now:duration));
         ("wall_s", Json.float wall_s);
         ("gate", Json.string (if pass then "pass" else "fail"));
         ("sample_t", Json.list (List.map (fun (t, _) -> Json.float t) all));
         ("sample_words",
          Json.list (List.map (fun (_, w) -> Json.int w) all));
       ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n%!" out;
  if not pass then exit 1
