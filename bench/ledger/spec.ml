(* What the ledger measures: its workloads, its end-to-end metrics with
   their regression bounds, and its per-layer metrics. BENCHMARK.json at
   the repository root is rendered from these tables ([manifest]); a
   test keeps the committed file equal to the rendering. *)

module Json = Softstate_obs.Json

type metric = {
  name : string;
  unit_ : string;
  better : Summary.better;
  bound : float;  (* end-to-end only: share of the parent's median *)
}

let m ?(bound = 0.0) name unit_ better = { name; unit_; better; bound }

(* Seconds one benchmark invocation measures for. *)
let run_seconds = 20

let command =
  [ "dune"; "exec"; "--display=quiet"; "--"; "./bench/ledger/ledger.exe";
    "run" ]

let paths = [ "bench/ledger" ]

type workload = {
  w_name : string;
  why : string;
  band : float * float;
      (* consistency a standard-size run must land in, any seed *)
}

let workloads =
  [ { w_name = "unicast-feedback";
      why =
        "Feedback NACKs over one hop with wheel expiry: the calendar, \
         two-queue scheduling, Seq_ring and receiver rows carry every \
         event; topology is bypassed";
      band = (0.875, 0.895) };
    { w_name = "unicast-sweep";
      why =
        "Two-queue with periodic-sweep expiry: the Hashtbl receiver store \
         and Timer_wheel sweeps, whose cost grows with run length";
      band = (0.81, 0.85) };
    { w_name = "multicast-tree";
      why =
        "Multicast with NACK slotting and damping over an 85-node 4-ary \
         tree: per-hop forwarding on the object Topology dominates";
      band = (0.625, 0.655) };
    { w_name = "sstp-churn";
      why =
        "SSTP session on a 2000-leaf store rewritten every 50 ms: MD5 \
         digests, Namespace and Wire work per event; the calendar is cheap";
      band = (0.985, 0.998) };
    { w_name = "gossip-flat";
      why =
        "Push-pull rumours over a 10^5-node flat random graph: \
         memory-bound graph build and contact sweeps, about 18 events \
         per rumour";
      band = (1.0, 1.0) } ]

let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

let end_to_end =
  Summary.
    [ m "setup_s" "s" Lower ~bound:0.25;
      m "wall_s" "s" Lower ~bound:0.25;
      m "sim_s_per_wall_s" "s/s" Higher ~bound:0.25;
      m "packets_per_s" "1/s" Higher ~bound:0.25;
      m "peak_heap_mb" "MB" Lower ~bound:0.15;
      m "consistency" "fraction" Higher ~bound:0.02 ]

let per_layer =
  let calls layer = m (layer ^ ".calls") "count" Summary.Lower in
  let ns layer = m (layer ^ ".ns_per_call") "ns" Summary.Lower in
  let words layer = m (layer ^ ".words_per_call") "words" Summary.Lower in
  let hit layer = m (layer ^ ".hit_ratio") "ratio" Summary.Higher in
  Summary.
    [ m "sim.events" "count" Lower;
      m "sim.events_per_s" "1/s" Higher;
      m "sim.calendar_high_water" "count" Lower;
      m "sim.step_p50_ns" "ns" Lower;
      m "sim.step_p99_ns" "ns" Lower;
      m "sim.step_max_ns" "ns" Lower;
      calls "core.fetch"; ns "core.fetch"; words "core.fetch";
      hit "core.fetch";
      calls "core.served"; ns "core.served";
      calls "core.deliver"; ns "core.deliver"; words "core.deliver";
      calls "core.nack_in"; ns "core.nack_in";
      calls "net.kick"; ns "net.kick";
      calls "net.send"; ns "net.send";
      m "net.send.accept_ratio" "ratio" Higher;
      m "loop.residual_ns_per_event" "ns" Lower;
      m "loop.residual_share" "ratio" Lower;
      m "loop.coverage" "ratio" Higher;
      calls "sstp.fetch"; ns "sstp.fetch"; words "sstp.fetch";
      hit "sstp.fetch";
      calls "sstp.deliver"; ns "sstp.deliver"; words "sstp.deliver";
      calls "sstp.feedback_in"; ns "sstp.feedback_in";
      calls "sstp.publish"; ns "sstp.publish";
      m "net.flat_build_s" "s" Lower;
      m "net.flat_words_per_node" "words" Lower;
      m "gossip.round_p50_ms" "ms" Lower;
      m "gossip.round_max_ms" "ms" Lower;
      m "gossip.rounds" "count" Lower;
      m "gossip.contacts_per_s" "1/s" Higher;
      m "gc.minor_words_per_event" "words" Lower;
      m "gc.major_collections" "count" Lower;
      m "net.loss_ratio" "ratio" Lower;
      m "net.packets_sent" "count" Lower;
      m "core.redundant_fraction" "ratio" Lower;
      m "core.transmissions" "count" Lower;
      m "core.nack_repair_ratio" "ratio" Higher;
      m "core.nacks_delivered" "count" Lower;
      m "core.nack_suppressed_ratio" "ratio" Higher;
      m "core.nacks_wanted" "count" Lower;
      m "core.false_expiries" "count" Lower;
      m "core.stale_purged" "count" Higher;
      m "sstp.feedback_share" "ratio" Lower;
      m "sstp.packets" "count" Lower;
      m "gossip.redundant_ratio" "ratio" Lower;
      m "gossip.contacts" "count" Lower;
      m "trace.span_cost_ns" "ns" Lower;
      m "trace.overhead_share" "ratio" Lower ]

let find_end_to_end name = List.find_opt (fun x -> x.name = name) end_to_end

(* BENCHMARK.json, byte for byte. *)
let manifest () =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let rows items render =
    add "[\n";
    List.iteri
      (fun i x ->
        add "    ";
        add (render x);
        add (if i = List.length items - 1 then "\n" else ",\n"))
      items;
    add "  ]"
  in
  let metric ~with_bound x =
    Json.obj
      ([ ("name", Json.string x.name);
         ("unit", Json.string x.unit_);
         ("better", Json.string (Summary.better_name x.better)) ]
      @ if with_bound then [ ("bound", Json.float x.bound) ] else [])
  in
  add "{\n  \"command\": ";
  add (Json.list (List.map Json.string command));
  add ",\n  \"paths\": ";
  add (Json.list (List.map Json.string paths));
  add (Printf.sprintf ",\n  \"run_seconds\": %d,\n  \"workloads\": " run_seconds);
  rows workloads (fun w ->
      Json.obj [ ("name", Json.string w.w_name); ("why", Json.string w.why) ]);
  add ",\n  \"end_to_end\": ";
  rows end_to_end (metric ~with_bound:true);
  add ",\n  \"per_layer\": ";
  rows per_layer (metric ~with_bound:false);
  add "\n}\n";
  Buffer.contents b
