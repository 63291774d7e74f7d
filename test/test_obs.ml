(* Tests for the observability layer: metrics registry, trace sinks,
   JSON round-trips, reports, and the instrumented SSTP session. *)

module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace
module Report = Softstate_obs.Report
module Json = Softstate_obs.Json
module Obs = Softstate_obs.Obs
module Engine = Softstate_sim.Engine
module Net = Softstate_net

(* ---- metrics ---- *)

let test_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "packets" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Metrics.Counter.value c);
  let c' = Metrics.counter m "packets" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "re-fetch shares the cell" 43 (Metrics.Counter.value c)

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Metrics.Gauge.set g 3.0;
  Metrics.Gauge.add g 1.5;
  Alcotest.(check (float 1e-12)) "set+add" 4.5 (Metrics.Gauge.value g)

let test_tw_gauge () =
  let m = Metrics.create () in
  let g = Metrics.tw_gauge m "queue" in
  Metrics.Tw_gauge.set g ~now:0.0 0.0;
  Metrics.Tw_gauge.set g ~now:10.0 1.0;
  Alcotest.(check (float 1e-9)) "time-weighted mean" 0.5
    (Metrics.Tw_gauge.average g ~now:20.0);
  Alcotest.(check (float 0.0)) "last" 1.0 (Metrics.Tw_gauge.last g)

let test_hist_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.hist m "lat" ~lo:0.0 ~hi:100.0 ~bins:100 in
  (* one sample per bucket centre: quantiles of uniform(0,100) *)
  for i = 0 to 99 do
    Metrics.Hist.add h (float_of_int i +. 0.5)
  done;
  Alcotest.(check int) "count" 100 (Metrics.Hist.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.0 (Metrics.Hist.mean h);
  Alcotest.(check (float 2.0)) "p50" 50.0 (Metrics.Hist.quantile h 0.5);
  Alcotest.(check (float 2.0)) "p90" 90.0 (Metrics.Hist.quantile h 0.9);
  Alcotest.(check (float 2.0)) "p99" 99.0 (Metrics.Hist.quantile h 0.99);
  let empty = Metrics.hist m "empty" ~lo:0.0 ~hi:1.0 ~bins:4 in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.Hist.quantile empty 0.5))

let test_registry_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "clash raises" true
    (try
       ignore (Metrics.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_snapshot_order_and_probe () =
  let m = Metrics.create () in
  let c = Metrics.counter m "first" in
  ignore (Metrics.gauge m "second");
  Metrics.probe m "third" (fun ~now -> now *. 2.0);
  Metrics.Counter.add c 7;
  let names = List.map fst (Metrics.snapshot m ~now:5.0) in
  Alcotest.(check (list string)) "registration order"
    [ "first"; "second"; "third" ] names;
  (match Metrics.get m "third" ~now:5.0 with
  | Some (Metrics.Float v) -> Alcotest.(check (float 0.0)) "probe reads" 10.0 v
  | _ -> Alcotest.fail "probe missing");
  match Metrics.get m "first" ~now:5.0 with
  | Some (Metrics.Int v) -> Alcotest.(check int) "counter value" 7 v
  | _ -> Alcotest.fail "counter missing"

let test_metrics_json () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a" in
  Metrics.Counter.add c 3;
  let g = Metrics.gauge m "b" in
  Metrics.Gauge.set g 1.5;
  Alcotest.(check string) "snapshot json" {|{"a": 3, "b": 1.5}|}
    (Metrics.to_json m ~now:0.0)

(* ---- trace sinks and serialisation ---- *)

let ev ?(detail = "") ?(value = 0.0) ~time ~src kind =
  Trace.event ~time ~src ~detail ~value kind

let test_null_disabled () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "memory enabled" true
    (Trace.enabled (Trace.memory ()));
  (* emitting into null is a no-op, not an error *)
  Trace.emit Trace.null (ev ~time:0.0 ~src:"x" Trace.Announce)

let test_memory_ring () =
  let t = Trace.memory ~capacity:3 () in
  for i = 1 to 5 do
    Trace.emit t (ev ~time:(float_of_int i) ~src:"x" Trace.Announce)
  done;
  let times = List.map (fun e -> e.Trace.time) (Trace.events t) in
  Alcotest.(check (list (float 0.0))) "keeps the newest" [ 3.0; 4.0; 5.0 ] times;
  Alcotest.(check int) "overwritten" 2 (Trace.overwritten t);
  Alcotest.(check int) "count by kind" 3 (Trace.count t Trace.Announce)

let test_filters () =
  let t = Trace.memory () in
  let filtered = Trace.with_src "link" (Trace.with_kinds [ Trace.Nack ] t) in
  Trace.emit filtered (ev ~time:1.0 ~src:"link.a" Trace.Nack);
  Trace.emit filtered (ev ~time:2.0 ~src:"other" Trace.Nack);
  Trace.emit filtered (ev ~time:3.0 ~src:"link.b" Trace.Announce);
  let srcs = List.map (fun e -> e.Trace.src) (Trace.events t) in
  Alcotest.(check (list string)) "src prefix and kind" [ "link.a" ] srcs

let test_tee () =
  let a = Trace.memory () and b = Trace.memory () in
  let t = Trace.tee [ a; b ] in
  Trace.emit t (ev ~time:1.0 ~src:"x" Trace.Refresh);
  Alcotest.(check int) "both sinks" 2
    (Trace.count a Trace.Refresh + Trace.count b Trace.Refresh)

let test_json_golden () =
  let e =
    ev ~time:1.5 ~src:"session.data" ~detail:"a/b" ~value:1000.0
      Trace.Packet_dropped
  in
  Alcotest.(check string) "golden encoding"
    {|{"t": 1.5, "src": "session.data", "kind": "packet_dropped", "detail": "a/b", "v": 1000}|}
    (Trace.to_json e);
  (* zero value and empty detail are omitted *)
  Alcotest.(check string) "minimal encoding"
    {|{"t": 2, "src": "x", "kind": "summary"}|}
    (Trace.to_json (ev ~time:2.0 ~src:"x" Trace.Summary))

let test_json_roundtrip () =
  let cases =
    [ ev ~time:1.5 ~src:"session.data" ~detail:"a/b" ~value:1000.0
        Trace.Packet_dropped;
      ev ~time:0.0 ~src:"eng\"ine" Trace.Timer_fired;
      ev ~time:123.456789 ~src:"r" ~detail:"path/with,comma"
        (Trace.Custom "odd kind");
      ev ~time:2.0 ~src:"x" ~value:(-3.5) Trace.Rate_change ]
  in
  List.iter
    (fun e ->
      match Trace.of_json (Trace.to_json e) with
      | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg)
      | Ok e' ->
          Alcotest.(check string) "src" e.Trace.src e'.Trace.src;
          Alcotest.(check string) "detail" e.Trace.detail e'.Trace.detail;
          Alcotest.(check (float 0.0)) "time" e.Trace.time e'.Trace.time;
          Alcotest.(check (float 0.0)) "value" e.Trace.value e'.Trace.value;
          Alcotest.(check string) "kind"
            (Trace.kind_to_string e.Trace.kind)
            (Trace.kind_to_string e'.Trace.kind))
    cases

let test_of_json_rejects () =
  (match Trace.of_json "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Trace.of_json {|{"src": "x"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted"

let test_jsonl_writer_streams () =
  let buf = Buffer.create 256 in
  let t = Trace.jsonl_writer (Buffer.add_string buf) in
  Trace.emit t (ev ~time:1.0 ~src:"a" Trace.Announce);
  Trace.emit t (ev ~time:2.0 ~src:"b" Trace.Refresh);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Trace.of_json line with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("stream line unparsable: " ^ msg))
    lines

let test_csv_writer () =
  let buf = Buffer.create 256 in
  let t = Trace.csv_writer (Buffer.add_string buf) in
  Trace.emit t (ev ~time:1.0 ~src:"a,b" ~detail:"he said \"hi\"" Trace.Nack);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + row" 2 (List.length lines);
  Alcotest.(check string) "header" Trace.csv_header (List.nth lines 0);
  Alcotest.(check string) "quoted fields"
    {|1,"a,b",nack,"he said ""hi""",0|}
    (List.nth lines 1)

(* ---- kind serialisation: exhaustive round-trip ---- *)

let all_builtin_kinds =
  [ Trace.Packet_sent; Trace.Packet_dropped; Trace.Packet_delivered;
    Trace.Queue_overflow; Trace.Announce; Trace.Refresh; Trace.Summary;
    Trace.Nack; Trace.Query; Trace.Repair; Trace.Remove;
    Trace.Digest_mismatch; Trace.Timer_fired; Trace.Rate_change;
    Trace.Link_down; Trace.Link_up; Trace.Node_crash; Trace.Node_restart;
    Trace.Partition; Trace.Heal ]

let test_kind_roundtrip_exhaustive () =
  List.iter
    (fun k ->
      let s = Trace.kind_to_string k in
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" s)
        true
        (Trace.kind_of_string s = k))
    all_builtin_kinds;
  (* the string forms are pairwise distinct *)
  let strings = List.map Trace.kind_to_string all_builtin_kinds in
  Alcotest.(check int) "no two kinds share a string"
    (List.length strings)
    (List.length (List.sort_uniq compare strings));
  (* unknown strings become Custom and round-trip from there *)
  Alcotest.(check bool) "custom round-trips" true
    (Trace.kind_of_string "totally_custom" = Trace.Custom "totally_custom");
  (* a Custom carrying a reserved string is deliberately lossy: its
     serial form is indistinguishable from the builtin, so parsing
     normalises to the builtin constructor *)
  List.iter
    (fun k ->
      let s = Trace.kind_to_string k in
      Alcotest.(check bool)
        (Printf.sprintf "Custom %S normalises to the builtin" s)
        true
        (Trace.kind_of_string (Trace.kind_to_string (Trace.Custom s)) = k))
    all_builtin_kinds

(* ---- serialisation properties (escaping, correlation fields) ---- *)

(* exact-in-float times/values so equality survives printing *)
let gen_exact_float = QCheck.Gen.map (fun n -> float_of_int n /. 8.0)
    (QCheck.Gen.int_range (-8_000) 8_000)

let gen_id =
  QCheck.Gen.oneof
    [ QCheck.Gen.return Trace.no_id; QCheck.Gen.int_range 0 10_000 ]

let gen_event =
  QCheck.Gen.(
    gen_exact_float >>= fun time ->
    string_size ~gen:char (int_range 0 12) >>= fun src ->
    string_size ~gen:char (int_range 0 20) >>= fun detail ->
    gen_exact_float >>= fun value ->
    gen_id >>= fun key ->
    gen_id >>= fun packet ->
    gen_id >>= fun hop ->
    gen_id >>= fun parent ->
    oneof
      [ oneofl all_builtin_kinds;
        map (fun s -> Trace.kind_of_string s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) ]
    >>= fun kind ->
    return
      (Trace.event ~time ~src ~detail ~value ~key ~packet ~hop ~parent kind))

let arb_event =
  QCheck.make ~print:(fun e -> Trace.to_json e) gen_event

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.time = b.Trace.time
  && a.Trace.src = b.Trace.src
  && a.Trace.kind = b.Trace.kind
  && a.Trace.detail = b.Trace.detail
  && a.Trace.value = b.Trace.value
  && a.Trace.key = b.Trace.key
  && a.Trace.packet = b.Trace.packet
  && a.Trace.hop = b.Trace.hop
  && a.Trace.parent = b.Trace.parent

let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl writer/of_json round-trip" ~count:500
    arb_event (fun e ->
      (* through the streaming writer, exactly as a CLI would write it *)
      let buf = Buffer.create 128 in
      let sink = Trace.jsonl_writer (Buffer.add_string buf) in
      Trace.emit sink e;
      let line = String.trim (Buffer.contents buf) in
      (* one line per event, whatever the detail contained *)
      if String.contains line '\n' then false
      else
        match Trace.of_json line with
        | Error _ -> false
        | Ok e' -> event_equal e e')

(* minimal CSV reader for the pinned 5-column shape: double-quote
   quoting, doubled quotes inside quoted fields *)
let parse_csv_row line =
  let n = String.length line in
  let fields = ref [] and buf = Buffer.create 16 in
  let flush () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec plain i =
    if i >= n then flush ()
    else
      match line.[i] with
      | ',' -> flush (); plain (i + 1)
      | '"' -> quoted (i + 1)
      | c -> Buffer.add_char buf c; plain (i + 1)
  and quoted i =
    if i >= n then flush ()
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c -> Buffer.add_char buf c; quoted (i + 1)
  in
  plain 0;
  List.rev !fields

let prop_csv_roundtrip =
  (* no newlines: the CSV stream is line-oriented *)
  let gen_line_event =
    QCheck.Gen.(
      gen_event >>= fun e ->
      let clean s =
        String.map (fun c -> if c = '\n' || c = '\r' then '_' else c) s
      in
      return
        { e with Trace.src = clean e.Trace.src;
          detail = clean e.Trace.detail })
  in
  QCheck.Test.make ~name:"csv writer escapes and parses back" ~count:500
    (QCheck.make ~print:Trace.to_csv gen_line_event)
    (fun e ->
      let buf = Buffer.create 128 in
      let sink = Trace.csv_writer (Buffer.add_string buf) in
      Trace.emit sink e;
      match
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> "")
      with
      | [ header; row ] -> (
          header = Trace.csv_header
          &&
          match parse_csv_row row with
          | [ time; src; kind; detail; value ] ->
              float_of_string time = e.Trace.time
              && src = e.Trace.src
              && kind = Trace.kind_to_string e.Trace.kind
              && detail = e.Trace.detail
              && float_of_string value = e.Trace.value
          | _ -> false)
      | _ -> false)

let test_correlation_fields_json () =
  let e =
    Trace.event ~time:1.0 ~src:"link" ~detail:"d" ~key:7 ~packet:42 ~hop:3
      ~parent:41 Trace.Packet_delivered
  in
  Alcotest.(check string) "correlated encoding"
    {|{"t": 1, "src": "link", "kind": "packet_delivered", "detail": "d", "key": 7, "pkt": 42, "hop": 3, "par": 41}|}
    (Trace.to_json e);
  (match Trace.of_json (Trace.to_json e) with
  | Error m -> Alcotest.fail m
  | Ok e' ->
      Alcotest.(check int) "key" 7 e'.Trace.key;
      Alcotest.(check int) "pkt" 42 e'.Trace.packet;
      Alcotest.(check int) "hop" 3 e'.Trace.hop;
      Alcotest.(check int) "parent" 41 e'.Trace.parent);
  (* defaults are omitted, keeping uncorrelated JSON byte-identical
     with the pre-correlation format *)
  Alcotest.(check string) "defaults omitted"
    {|{"t": 2, "src": "x", "kind": "summary"}|}
    (Trace.to_json (ev ~time:2.0 ~src:"x" Trace.Summary));
  (* the CSV shape stays pinned at five columns *)
  Alcotest.(check int) "csv stays 5-column" 5
    (List.length (parse_csv_row (Trace.to_csv e)))

let test_recorder_ring () =
  let r = Trace.recorder ~capacity:4 () in
  Alcotest.(check bool) "recorder is enabled" true (Trace.enabled r);
  for i = 1 to 10 do
    Trace.emit r (ev ~time:(float_of_int i) ~src:"x" Trace.Announce)
  done;
  let times = List.map (fun e -> e.Trace.time) (Trace.recent r) in
  Alcotest.(check (list (float 0.0))) "last capacity events, oldest first"
    [ 7.0; 8.0; 9.0; 10.0 ] times;
  Alcotest.(check int) "seen counts everything" 10 (Trace.seen r)

(* ---- flat JSON parser ---- *)

let test_json_parse_flat () =
  match Json.parse_flat {|{"a": 1.5, "b": "x\"y", "c": true, "d": null}|} with
  | Error msg -> Alcotest.fail msg
  | Ok fields -> (
      (match Json.member "a" fields with
      | Some (Json.Number x) -> Alcotest.(check (float 0.0)) "number" 1.5 x
      | _ -> Alcotest.fail "a");
      (match Json.member "b" fields with
      | Some (Json.String s) -> Alcotest.(check string) "escape" "x\"y" s
      | _ -> Alcotest.fail "b");
      (match Json.member "c" fields with
      | Some (Json.Bool b) -> Alcotest.(check bool) "bool" true b
      | _ -> Alcotest.fail "c");
      match Json.member "d" fields with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "d")

(* ---- histogram out-of-range accounting ---- *)

let test_hist_out_of_range () =
  let m = Metrics.create () in
  let h = Metrics.hist m "lat" ~lo:0.0 ~hi:10.0 ~bins:10 in
  Metrics.Hist.add h (-5.0);
  Metrics.Hist.add h 15.0;
  Metrics.Hist.add h 5.0;
  Alcotest.(check int) "count includes out-of-range" 3 (Metrics.Hist.count h);
  Alcotest.(check int) "underflow" 1 (Metrics.Hist.underflow h);
  Alcotest.(check int) "overflow" 1 (Metrics.Hist.overflow h);
  Alcotest.(check (float 1e-9)) "mean includes out-of-range" 5.0
    (Metrics.Hist.mean h);
  (* Provenance: since PR 8 quantiles come from a sketch over the full
     stream, so out-of-range samples are ranked too (previously they
     were clipped to the bin range). With three samples {-5, 5, 15}
     the median is the middle value exactly. *)
  Alcotest.(check (float 1e-9)) "p50 over all samples" 5.0
    (Metrics.Hist.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p0 is the exact minimum" (-5.0)
    (Metrics.Hist.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the exact maximum" 15.0
    (Metrics.Hist.quantile h 1.0);
  (* snapshot and report expose the out-of-range tallies *)
  (match Metrics.get m "lat" ~now:0.0 with
  | Some (Metrics.Dist { underflow; overflow; _ }) ->
      Alcotest.(check int) "snapshot underflow" 1 underflow;
      Alcotest.(check int) "snapshot overflow" 1 overflow
  | _ -> Alcotest.fail "hist snapshot missing");
  let s = Report.of_metrics m ~now:0.0 in
  let row_names = List.map fst s.Report.rows in
  Alcotest.(check bool) "report has underflow/overflow rows" true
    (List.mem "lat.underflow" row_names && List.mem "lat.overflow" row_names)

(* ---- lifecycle analyzer ---- *)

module Lifecycle = Softstate_obs.Lifecycle

let lev ?(detail = "") ?key ?packet ?hop ?parent ~time ~src kind =
  Trace.event ~time ~src ~detail ?key ?packet ?hop ?parent kind

(* a key announced and delivered over two hops, then a refresh packet
   destroyed by a fault while a link is down, NACKed, and repaired
   after the link returns *)
let lifecycle_fixture =
  [ lev ~time:0.0 ~src:"two_queue" ~detail:"7" ~key:7 ~packet:1 Trace.Announce;
    lev ~time:0.5 ~src:"topo.end" ~key:7 ~packet:1 ~hop:1
      Trace.Packet_delivered;
    lev ~time:1.0 ~src:"topo.end" ~packet:1 ~hop:2 Trace.Packet_delivered;
    lev ~time:1.5 ~src:"two_queue" ~detail:"7" ~key:7 ~packet:2 Trace.Refresh;
    lev ~time:2.0 ~src:"topology" ~detail:"1-2" Trace.Link_down;
    lev ~time:3.0 ~src:"topo.e1" ~detail:"fault" ~packet:2 ~hop:2
      Trace.Packet_dropped;
    lev ~time:4.0 ~src:"feedback" ~detail:"2" ~key:7 ~packet:2 ~parent:1
      Trace.Nack;
    lev ~time:5.0 ~src:"topology" ~detail:"1-2" Trace.Link_up;
    lev ~time:6.0 ~src:"two_queue" ~detail:"7" ~key:7 ~packet:3 ~parent:2
      Trace.Repair;
    lev ~time:6.5 ~src:"topo.end" ~packet:3 ~hop:2 Trace.Packet_delivered ]

let test_lifecycle_reconstruction () =
  let t = Lifecycle.of_event_list lifecycle_fixture in
  Alcotest.(check (float 0.0)) "horizon" 6.5 (Lifecycle.horizon t);
  let k =
    match Lifecycle.find t "7" with
    | Some k -> k
    | None -> Alcotest.fail "key 7 missing"
  in
  Alcotest.(check int) "announces" 1 k.Lifecycle.announces;
  Alcotest.(check int) "refreshes" 1 k.Lifecycle.refreshes;
  Alcotest.(check int) "repairs" 1 k.Lifecycle.repairs;
  Alcotest.(check int) "nacks" 1 k.Lifecycle.nacks;
  (* ttc: announce at 0, completed (deepest hop) delivery at 1.0 *)
  (match k.Lifecycle.time_to_consistency with
  | Some ttc -> Alcotest.(check (float 1e-9)) "ttc" 1.0 ttc
  | None -> Alcotest.fail "no ttc");
  (* the NACK at 4.0 is answered by the completed delivery at 6.5 *)
  Alcotest.(check (array (float 1e-9))) "repair latency" [| 2.5 |]
    k.Lifecycle.repair_latencies;
  (* the faulted drop is one stall, attributed to the down link *)
  (match k.Lifecycle.stalls with
  | [ s ] ->
      Alcotest.(check int) "stalled packet" 2 s.Lifecycle.packet;
      Alcotest.(check string) "drop src" "topo.e1" s.Lifecycle.drop_src;
      (match s.Lifecycle.recovered_at with
      | Some r -> Alcotest.(check (float 1e-9)) "recovered" 6.5 r
      | None -> Alcotest.fail "no recovery");
      (match s.Lifecycle.culprits with
      | [ c ] ->
          Alcotest.(check string) "culprit link" "1-2" c.Lifecycle.link;
          Alcotest.(check (float 0.0)) "down at" 2.0 c.Lifecycle.down_at;
          (match c.Lifecycle.up_at with
          | Some u -> Alcotest.(check (float 0.0)) "up at" 5.0 u
          | None -> Alcotest.fail "culprit never up")
      | cs ->
          Alcotest.fail
            (Printf.sprintf "expected one culprit, got %d" (List.length cs)))
  | ss ->
      Alcotest.fail
        (Printf.sprintf "expected one stall, got %d" (List.length ss)));
  (* the causal chain of the dropped refresh: its drop, its NACK, and
     the repair it triggered *)
  let chain_kinds =
    List.map (fun e -> e.Trace.kind) (Lifecycle.chain t 2)
  in
  Alcotest.(check bool) "chain has drop, nack and repair" true
    (List.mem Trace.Packet_dropped chain_kinds
    && List.mem Trace.Nack chain_kinds
    && List.mem Trace.Repair chain_kinds);
  (* stalest ranks the key *)
  (match Lifecycle.stalest t with
  | [ worst ] -> Alcotest.(check string) "stalest key" "7" worst.Lifecycle.key
  | _ -> Alcotest.fail "stalest should list exactly key 7");
  (* nack-depth series: one nack issued at 4.0, resolved at 6.5 *)
  (match Lifecycle.nack_depth_series t ~bucket:5.0 with
  | [ p0; p1 ] ->
      Alcotest.(check int) "bucket 0 nacks" 1 p0.Lifecycle.nacks;
      Alcotest.(check int) "open at 5.0" 1 p0.Lifecycle.outstanding;
      Alcotest.(check int) "resolved by 10.0" 0 p1.Lifecycle.outstanding
  | ps ->
      Alcotest.fail
        (Printf.sprintf "expected 2 buckets, got %d" (List.length ps)))

let test_lifecycle_jsonl_roundtrip () =
  (* through the writer and back: same reconstruction from a file *)
  let buf = Buffer.create 1024 in
  let sink = Trace.jsonl_writer (Buffer.add_string buf) in
  List.iter (Trace.emit sink) lifecycle_fixture;
  let path = Filename.temp_file "lifecycle" ".jsonl" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  let t =
    match Lifecycle.of_jsonl path with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  match Lifecycle.find t "7" with
  | Some k ->
      Alcotest.(check int) "stalls survive the file round-trip" 1
        (List.length k.Lifecycle.stalls)
  | None -> Alcotest.fail "key 7 missing after round-trip"

let test_percentile () =
  let vs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Lifecycle.percentile vs 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 4.0 (Lifecycle.percentile vs 1.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5
    (Lifecycle.percentile vs 0.5);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Lifecycle.percentile [] 0.5))

(* ---- registry determinism ---- *)

(* Every value an obs registry holds is a function of the simulation:
   two obs-attached runs of one seed snapshot equal, for a core
   protocol run and for a gossip run alike. *)
let test_registry_deterministic () =
  let module E = Softstate_core.Experiment in
  let core obs =
    let config =
      { E.default with
        E.duration = 200.0;
        loss = E.Bernoulli 0.3;
        protocol =
          E.Feedback
            { mu_hot_kbps = 20.0; mu_cold_kbps = 20.0; mu_fb_kbps = 5.0;
              nack_bits = 64; fb_lossy = true };
        obs = Some obs }
    in
    ignore (E.run config);
    config.E.duration
  in
  let gossip obs =
    let r =
      E.run_gossip ~obs
        { E.gossip_default with
          E.g_topology = E.Random_graph { nodes = 2_000; edge_prob = 0.002 };
          g_mode = Softstate_core.Gossip.Push_pull;
          g_loss = 0.1 }
    in
    fst r.Softstate_core.Gossip.series.(Array.length r.series - 1)
  in
  List.iter
    (fun (name, run) ->
      let snapshot () =
        let obs = Obs.create () in
        let now = run obs in
        Metrics.snapshot (Obs.metrics obs) ~now
      in
      let a = snapshot () in
      Alcotest.(check bool) (name ^ ": engine probes present") true
        (List.mem_assoc "engine.events_fired" a);
      Alcotest.(check bool) (name ^ ": snapshots equal") true
        (Stdlib.compare a (snapshot ()) = 0))
    [ ("core", core); ("gossip", gossip) ]

(* ---- reports ---- *)

let test_report_render () =
  let r =
    Report.make ~name:"demo"
      [ Report.section "totals"
          [ ("packets", Report.int 12); ("ok", Report.bool true);
            ("rate", Report.float 1.5) ] ]
  in
  let table = Report.to_table r in
  Alcotest.(check bool) "table mentions section" true
    (String.length table > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    contains table "totals" && contains table "packets");
  Alcotest.(check string) "json"
    {|{"name": "demo", "totals": {"packets": 12, "ok": true, "rate": 1.5}}|}
    (Report.to_json r)

let test_report_of_metrics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "n" in
  Metrics.Counter.add c 2;
  let s = Report.of_metrics m ~now:1.0 in
  Alcotest.(check string) "default title" "metrics" s.Report.title;
  Alcotest.(check int) "one row" 1 (List.length s.Report.rows)

(* ---- instrumented session: trace/metrics consistency ---- *)

let run_lossy_session () =
  let engine = Engine.create () in
  let trace = Trace.memory () in
  let obs = Obs.create ~trace () in
  Softstate_obs.Engine_probe.attach ~obs engine;
  let config =
    { (Sstp.Session.default_config ~mu_total_bps:64_000.0) with
      Sstp.Session.loss = Net.Loss.bernoulli 0.3;
      summary_period = 0.5 }
  in
  let session =
    Sstp.Session.create ~obs ~engine
      ~rng:(Softstate_util.Rng.create 7)
      ~config ()
  in
  let rng = Softstate_util.Rng.create 11 in
  let next = ref 0.0 in
  for i = 0 to 199 do
    next := !next +. (0.05 +. (0.4 *. Softstate_util.Rng.float rng));
    let path = Printf.sprintf "app/item%d" (i mod 50) in
    Engine.schedule_at engine ~time:!next (fun _ ->
        Sstp.Session.publish session ~path ~payload:(string_of_int i))
  done;
  Engine.run ~until:90.0 engine;
  (engine, obs, trace, session)

let test_session_trace_consistency () =
  let _engine, obs, trace, session = run_lossy_session () in
  let data_events =
    List.filter
      (fun e -> e.Trace.src = "session.data")
      (Trace.events trace)
  in
  let count k =
    List.length (List.filter (fun e -> e.Trace.kind = k) data_events)
  in
  let sent = count Trace.Packet_sent in
  let dropped = count Trace.Packet_dropped in
  let delivered = count Trace.Packet_delivered in
  Alcotest.(check bool) "ran long enough to lose packets" true
    (sent > 50 && dropped > 0);
  Alcotest.(check int) "sent = dropped + delivered" sent (dropped + delivered);
  (* the trace agrees with the metrics registry... *)
  let m = Obs.metrics obs in
  (match Metrics.get m "session.data.dropped" ~now:90.0 with
  | Some (Metrics.Float v) ->
      Alcotest.(check int) "registry drop tally" dropped (int_of_float v)
  | _ -> Alcotest.fail "session.data.dropped probe missing");
  (* ...and with the session's own accessors (satellite counters) *)
  Alcotest.(check int) "data_packets accessor" delivered
    (Sstp.Session.data_packets session);
  match Metrics.get m "session.data_packets" ~now:90.0 with
  | Some (Metrics.Float v) ->
      Alcotest.(check int) "session.data_packets probe" delivered
        (int_of_float v)
  | _ -> Alcotest.fail "session.data_packets probe missing"

let test_session_repair_traffic_traced () =
  let _engine, obs, trace, session = run_lossy_session () in
  ignore session;
  let kinds k = Trace.count trace k in
  (* 30% loss must provoke the repair machinery, and every repair
     action leaves a trace event *)
  Alcotest.(check bool) "digest mismatches seen" true
    (kinds Trace.Digest_mismatch > 0);
  Alcotest.(check bool) "receiver nacked or queried" true
    (kinds Trace.Nack > 0 || kinds Trace.Query > 0);
  Alcotest.(check bool) "sender announced" true (kinds Trace.Announce > 0);
  Alcotest.(check bool) "sender sent summaries" true
    (kinds Trace.Summary > 0);
  let m = Obs.metrics obs in
  match Metrics.get m "engine.events_fired" ~now:90.0 with
  | Some (Metrics.Float v) ->
      Alcotest.(check bool) "engine probe live" true (v > 0.0)
  | _ -> Alcotest.fail "engine.events_fired probe missing"

let test_disabled_trace_changes_nothing () =
  (* same seeds with and without observability: identical outcome *)
  let run obs =
    let engine = Engine.create () in
    let config =
      { (Sstp.Session.default_config ~mu_total_bps:64_000.0) with
        Sstp.Session.loss = Net.Loss.bernoulli 0.3 }
    in
    let session =
      Sstp.Session.create ?obs ~engine
        ~rng:(Softstate_util.Rng.create 7)
        ~config ()
    in
    for i = 0 to 49 do
      let t = 0.1 +. (0.5 *. float_of_int i) in
      Engine.schedule_at engine ~time:t (fun _ ->
          Sstp.Session.publish session
            ~path:(Printf.sprintf "k/%d" (i mod 10))
            ~payload:(string_of_int i))
    done;
    Engine.run ~until:60.0 engine;
    ( Sstp.Session.data_packets session,
      Sstp.Session.feedback_packets session,
      Sstp.Session.consistency session )
  in
  let plain = run None in
  let traced = run (Some (Obs.create ~trace:(Trace.memory ()) ())) in
  let d1, f1, c1 = plain and d2, f2, c2 = traced in
  Alcotest.(check int) "data packets equal" d1 d2;
  Alcotest.(check int) "feedback packets equal" f1 f2;
  Alcotest.(check (float 0.0)) "consistency equal" c1 c2

let () =
  Alcotest.run "softstate_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "tw gauge" `Quick test_tw_gauge;
          Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "hist out-of-range" `Quick test_hist_out_of_range;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "snapshot order" `Quick
            test_snapshot_order_and_probe;
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null disabled" `Quick test_null_disabled;
          Alcotest.test_case "memory ring" `Quick test_memory_ring;
          Alcotest.test_case "filters" `Quick test_filters;
          Alcotest.test_case "tee" `Quick test_tee;
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "of_json rejects" `Quick test_of_json_rejects;
          Alcotest.test_case "jsonl writer" `Quick test_jsonl_writer_streams;
          Alcotest.test_case "csv writer" `Quick test_csv_writer;
          Alcotest.test_case "flat parser" `Quick test_json_parse_flat;
          Alcotest.test_case "kind round-trip exhaustive" `Quick
            test_kind_roundtrip_exhaustive;
          Alcotest.test_case "correlation fields" `Quick
            test_correlation_fields_json;
          Alcotest.test_case "recorder ring" `Quick test_recorder_ring;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reconstruction" `Quick
            test_lifecycle_reconstruction;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_lifecycle_jsonl_roundtrip;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "registry",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_registry_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "of metrics" `Quick test_report_of_metrics;
        ] );
      ( "session",
        [
          Alcotest.test_case "trace consistency" `Quick
            test_session_trace_consistency;
          Alcotest.test_case "repair traffic traced" `Quick
            test_session_repair_traffic_traced;
          Alcotest.test_case "disabled trace is inert" `Quick
            test_disabled_trace_changes_nothing;
        ] );
    ]
