(* Bechamel micro-benchmarks of the substrate hot paths. *)

module Rng = Softstate_util.Rng
module Heap = Softstate_util.Heap
module Engine = Softstate_sim.Engine
module Stride = Softstate_sched.Stride
module Lottery = Softstate_sched.Lottery

open Bechamel
open Toolkit

(* Drains through the slot protocol Engine.step uses, not the boxing
   [pop]. *)
let bench_heap =
  Test.make ~name:"heap insert+drop_top x1000"
    (Staged.stage (fun () ->
         let g = Rng.create 1 in
         let h = Heap.create () in
         for _ = 1 to 1000 do
           Heap.insert h ~key:(Rng.float g) ()
         done;
         while Heap.top h >= 0 do
           ignore (Heap.drop_top h)
         done))

let bench_engine =
  Test.make ~name:"engine 1000 events"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         let g = Rng.create 2 in
         for _ = 1 to 1000 do
           Engine.schedule e ~after:(Rng.float g) (fun _ -> ())
         done;
         Engine.run e))

let bench_engine_probed =
  Test.make ~name:"obs overhead: engine 1000 events, probes attached"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         let obs = Softstate_obs.Obs.create () in
         Softstate_obs.Engine_probe.attach ~obs e;
         let g = Rng.create 2 in
         for _ = 1 to 1000 do
           Engine.schedule e ~after:(Rng.float g) (fun _ -> ())
         done;
         Engine.run e))

let bench_md5 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"md5 1 KiB"
    (Staged.stage (fun () -> ignore (Digest.string payload)))

let bench_stride =
  Test.make ~name:"stride select+charge x1000"
    (Staged.stage (fun () ->
         let s = Stride.create () in
         let a = Stride.add_flow s ~weight:1.0 in
         let b = Stride.add_flow s ~weight:3.0 in
         Stride.set_backlogged s a true;
         Stride.set_backlogged s b true;
         for _ = 1 to 1000 do
           match Stride.select s with
           | Some f -> Stride.charge s f 1.0
           | None -> ()
         done))

let bench_lottery =
  Test.make ~name:"lottery select+charge x1000"
    (Staged.stage (fun () ->
         let s = Lottery.create ~rng:(Rng.create 3) in
         let a = Lottery.add_flow s ~weight:1.0 in
         let b = Lottery.add_flow s ~weight:3.0 in
         Lottery.set_backlogged s a true;
         Lottery.set_backlogged s b true;
         for _ = 1 to 1000 do
           match Lottery.select s with
           | Some f -> Lottery.charge s f 1.0
           | None -> ()
         done))

let bench_namespace =
  Test.make ~name:"namespace update+root digest (100 leaves)"
    (Staged.stage
       (let ns = Sstp.Namespace.create () in
        for i = 0 to 99 do
          ignore
            (Sstp.Namespace.put ns
               ~path:(Sstp.Path.of_string (Printf.sprintf "g%d/k%d" (i mod 10) i))
               ~payload:"v")
        done;
        let flip = ref 0 in
        fun () ->
          incr flip;
          ignore
            (Sstp.Namespace.put ns
               ~path:(Sstp.Path.of_string "g3/k33")
               ~payload:(string_of_int !flip));
          ignore (Sstp.Namespace.root_digest ns)))

let bench_wire =
  let env =
    { Sstp.Wire.seq = 7; sent_at = 1.0;
      msg =
        Sstp.Wire.Data
          { path = "a/b/c"; version = 3; payload = String.make 200 'p';
            meta = [] } }
  in
  Test.make ~name:"wire encode+decode Data(200B)"
    (Staged.stage (fun () -> ignore (Sstp.Wire.decode (Sstp.Wire.encode env))))

let bench_open_loop_sim =
  Test.make ~name:"open-loop sim 100 s"
    (Staged.stage (fun () ->
         ignore
           (Softstate_core.Experiment.run
              { Softstate_core.Experiment.default with
                Softstate_core.Experiment.duration = 100.0 })))

let all_tests =
  Test.make_grouped ~name:"softstate"
    [ bench_heap; bench_engine; bench_engine_probed; bench_md5; bench_stride;
      bench_lottery; bench_namespace; bench_wire; bench_open_loop_sim ]

let run () =
  Tables.header "Micro-benchmarks (bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          Printf.printf "%-44s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-44s %12s\n" name "-")
    ols
