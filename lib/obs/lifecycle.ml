(* Causal lifecycle reconstruction over a trace.

   One pass over an event stream (from a memory sink, a flight
   recorder, or a JSONL file read back) rebuilds, per soft-state key,
   the announce → hop-by-hop delivery → refresh → repair → expiry
   story, and per packet the causal chain (who was sent, dropped,
   delivered where, and which NACKs/repairs it triggered).

   Key identity: an event belongs to the key named by its [key]
   correlation field when set; SSTP events (src ["sender"] /
   ["receiver"]) fall back to [detail], which carries the namespace
   path. A packet is tied to its key by the sender-side event that
   created it (Announce / Refresh / Repair / Remove share the
   announcement's sequence number as packet id).

   "Delivered" for a packet means the first Packet_delivered at the
   packet's deepest observed hop — over a topology that is the final
   edge of its path (or tree branch); over single-hop transports every
   event carries hop {!Trace.no_id} and the first delivery counts. *)

type culprit = {
  link : string; (* Link_down detail, "a-b" node pair *)
  down_at : float;
  up_at : float option; (* None: still down at end of trace *)
}

type stall = {
  packet : int;
  dropped_at : float;
  drop_src : string;
  drop_hop : int;
  recovered_at : float option;
      (* next completed delivery of the same key, None if never *)
  culprits : culprit list;
}

type key_stats = {
  key : string;
  announces : int;
  refreshes : int;
  repairs : int;
  removes : int;
  nacks : int;
  queries : int;
  first_delivery : float option;
  time_to_consistency : float option;
  repair_latencies : float array;
  stalls : stall list;
}

type t = {
  events : Trace.event array; (* time order *)
  keys : key_stats list; (* sorted by key name *)
  horizon : float;
  nack_spans : (float * float option) array;
      (* per repair request: (issued, resolved by the next completed
         delivery of its key); sorted by issue time *)
}

(* ------------------------------------------------------------------ *)
(* Loading *)

let of_events evs =
  let arr = Array.of_list evs in
  (* emission order is time order per sink, but a tee of sinks or a
     concatenated file may interleave: restore time order stably *)
  let idx = Array.mapi (fun i ev -> (i, ev)) arr in
  Array.sort
    (fun (i, (a : Trace.event)) (j, b) ->
      match compare a.Trace.time b.Trace.time with
      | 0 -> compare i j
      | c -> c)
    idx;
  Array.map snd idx

let load_jsonl_lines lines =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" then go (n + 1) acc rest
        else (
          match Trace.of_json line with
          | Ok ev -> go (n + 1) (ev :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

let load_jsonl path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      load_jsonl_lines lines

(* ------------------------------------------------------------------ *)
(* Key / packet attribution *)

let lifecycle_key (ev : Trace.event) =
  match ev.Trace.kind with
  | Trace.Announce | Trace.Refresh | Trace.Repair | Trace.Remove
  | Trace.Nack | Trace.Query ->
      if ev.Trace.key <> Trace.no_id then
        Some (string_of_int ev.Trace.key)
      else if
        ev.Trace.detail <> ""
        && (ev.Trace.src = "sender" || ev.Trace.src = "receiver")
      then Some ev.Trace.detail
      else None
  | _ -> None

type pstate = {
  mutable max_hop : int;
  mutable deliveries : (int * float) list; (* (hop, time), reverse order *)
}

type kacc = {
  mutable k_announces : int;
  mutable k_refreshes : int;
  mutable k_repairs : int;
  mutable k_removes : int;
  mutable k_nacks : int;
  mutable k_queries : int;
  mutable k_announced_at : float; (* nan = never *)
  mutable k_nack_times : float list; (* reverse order *)
  mutable k_fault_drops : (int * float * string * int) list;
      (* (packet, time, src, hop), reverse order *)
  mutable k_packets : int list;
}

let fresh_kacc () =
  { k_announces = 0; k_refreshes = 0; k_repairs = 0; k_removes = 0;
    k_nacks = 0; k_queries = 0; k_announced_at = nan; k_nack_times = [];
    k_fault_drops = []; k_packets = [] }

(* first delivery time at the packet's deepest hop, if any *)
let completed_at p =
  match p.deliveries with
  | [] -> None
  | ds ->
      List.fold_left
        (fun acc (hop, time) ->
          if hop <> p.max_hop then acc
          else
            match acc with
            | Some best when best <= time -> acc
            | _ -> Some time)
        None ds

(* first element of a sorted array strictly greater than [x] *)
let next_after sorted x =
  let n = Array.length sorted in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  if !lo < n then Some sorted.(!lo) else None

let analyse events =
  let n = Array.length events in
  let horizon = if n = 0 then 0.0 else events.(n - 1).Trace.time in
  (* link fault intervals, keyed by the Link_down/Link_up detail *)
  let spans : (string, (float * float option) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let packets : (int, pstate) Hashtbl.t = Hashtbl.create 1024 in
  let pkt_key : (int, string) Hashtbl.t = Hashtbl.create 1024 in
  let keys : (string, kacc) Hashtbl.t = Hashtbl.create 64 in
  let kacc key =
    match Hashtbl.find_opt keys key with
    | Some a -> a
    | None ->
        let a = fresh_kacc () in
        Hashtbl.replace keys key a;
        a
  in
  let pstate pkt =
    match Hashtbl.find_opt packets pkt with
    | Some p -> p
    | None ->
        let p = { max_hop = Trace.no_id; deliveries = [] } in
        Hashtbl.replace packets pkt p;
        p
  in
  Array.iter
    (fun (ev : Trace.event) ->
      let pkt = ev.Trace.packet in
      (match ev.Trace.kind with
      | Trace.Link_down ->
          let l =
            match Hashtbl.find_opt spans ev.Trace.detail with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace spans ev.Trace.detail l;
                l
          in
          l := (ev.Trace.time, None) :: !l
      | Trace.Link_up -> (
          match Hashtbl.find_opt spans ev.Trace.detail with
          | Some ({ contents = (down, None) :: rest } as l) ->
              l := (down, Some ev.Trace.time) :: rest
          | _ -> ())
      | Trace.Packet_sent when pkt <> Trace.no_id ->
          let p = pstate pkt in
          if ev.Trace.hop > p.max_hop then p.max_hop <- ev.Trace.hop
      | Trace.Packet_delivered when pkt <> Trace.no_id ->
          let p = pstate pkt in
          if ev.Trace.hop > p.max_hop then p.max_hop <- ev.Trace.hop;
          p.deliveries <- (ev.Trace.hop, ev.Trace.time) :: p.deliveries
      | Trace.Packet_dropped when pkt <> Trace.no_id ->
          let p = pstate pkt in
          if ev.Trace.hop > p.max_hop then p.max_hop <- ev.Trace.hop;
          if ev.Trace.detail = "fault" then (
            match Hashtbl.find_opt pkt_key pkt with
            | Some key ->
                let a = kacc key in
                a.k_fault_drops <-
                  (pkt, ev.Trace.time, ev.Trace.src, ev.Trace.hop)
                  :: a.k_fault_drops
            | None -> ())
      | _ -> ());
      match lifecycle_key ev with
      | None -> ()
      | Some key ->
          let a = kacc key in
          if pkt <> Trace.no_id && not (Hashtbl.mem pkt_key pkt) then begin
            Hashtbl.replace pkt_key pkt key;
            a.k_packets <- pkt :: a.k_packets
          end;
          (match ev.Trace.kind with
          | Trace.Announce ->
              a.k_announces <- a.k_announces + 1;
              if Float.is_nan a.k_announced_at then
                a.k_announced_at <- ev.Trace.time
          | Trace.Refresh -> a.k_refreshes <- a.k_refreshes + 1
          | Trace.Repair -> a.k_repairs <- a.k_repairs + 1
          | Trace.Remove -> a.k_removes <- a.k_removes + 1
          | Trace.Nack ->
              a.k_nacks <- a.k_nacks + 1;
              a.k_nack_times <- ev.Trace.time :: a.k_nack_times
          | Trace.Query -> a.k_queries <- a.k_queries + 1
          | _ -> ()))
    events;
  (* fault intervals, oldest first per link *)
  let culprits_at time =
    let hits =
      (* lint: allow D003 commutative: collects matches, then sorts *)
      Hashtbl.fold
        (fun link l acc ->
          List.fold_left
            (fun acc (down, up) ->
              let covers =
                down <= time && (match up with None -> true | Some u -> time < u)
              in
              if covers then { link; down_at = down; up_at = up } :: acc
              else acc)
            acc !l)
        spans []
    in
    List.sort (fun a b -> compare (a.link, a.down_at) (b.link, b.down_at)) hits
  in
  let key_names =
    List.sort compare
      (* lint: allow D003 commutative: collects keys, then sorts *)
      (Hashtbl.fold (fun k _ acc -> k :: acc) keys [])
  in
  let nack_spans = ref [] in
  let stats =
    List.map
      (fun key ->
        let a = Hashtbl.find keys key in
        (* completed-delivery times of the key's packets, sorted *)
        let deliveries =
          List.filter_map
            (fun pkt ->
              match Hashtbl.find_opt packets pkt with
              | Some p -> completed_at p
              | None -> None)
            a.k_packets
        in
        let deliveries = Array.of_list deliveries in
        Array.sort compare deliveries;
        let first_delivery =
          if Array.length deliveries = 0 then None else Some deliveries.(0)
        in
        let announced_at =
          if Float.is_nan a.k_announced_at then None else Some a.k_announced_at
        in
        let time_to_consistency =
          match announced_at, first_delivery with
          | Some t0, Some t1 -> Some (t1 -. t0)
          | _ -> None
        in
        let spans =
          List.rev_map
            (fun t_nack -> (t_nack, next_after deliveries t_nack))
            a.k_nack_times
        in
        nack_spans := List.rev_append spans !nack_spans;
        let repair_latencies =
          List.filter_map
            (fun (t_nack, resolved) ->
              Option.map (fun t -> t -. t_nack) resolved)
            spans
        in
        (* one stall per dropped packet: a fanout destroys the same
           packet on every severed branch, which is one staleness
           episode, not several — keep the earliest drop *)
        let stalls =
          let seen = Hashtbl.create 8 in
          List.filter_map
            (fun (packet, dropped_at, drop_src, drop_hop) ->
              if Hashtbl.mem seen packet then None
              else begin
                Hashtbl.add seen packet ();
                Some
                  { packet; dropped_at; drop_src; drop_hop;
                    recovered_at = next_after deliveries dropped_at;
                    culprits = culprits_at dropped_at }
              end)
            (List.rev a.k_fault_drops)
        in
        { key;
          announces = a.k_announces;
          refreshes = a.k_refreshes;
          repairs = a.k_repairs;
          removes = a.k_removes;
          nacks = a.k_nacks;
          queries = a.k_queries;
          first_delivery;
          time_to_consistency;
          repair_latencies = Array.of_list repair_latencies;
          stalls })
      key_names
  in
  let nack_spans = Array.of_list !nack_spans in
  Array.sort compare nack_spans;
  { events; keys = stats; horizon; nack_spans }

let of_event_list evs = analyse (of_events evs)

let of_jsonl path =
  match load_jsonl path with
  | Error e -> Error e
  | Ok evs -> Ok (of_event_list evs)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let keys t = t.keys
let events t = t.events
let horizon t = t.horizon

let find t key = List.find_opt (fun k -> k.key = key) t.keys

let chain t pkt =
  if pkt = Trace.no_id then []
  else
    List.filter
      (fun (ev : Trace.event) ->
        ev.Trace.packet = pkt || ev.Trace.parent = pkt)
      (Array.to_list t.events)

let stall_duration t (s : stall) =
  (match s.recovered_at with Some r -> r | None -> t.horizon) -. s.dropped_at

let stalest t =
  let with_stalls = List.filter (fun k -> k.stalls <> []) t.keys in
  let worst k =
    List.fold_left (fun acc s -> Float.max acc (stall_duration t s)) 0.0
      k.stalls
  in
  List.sort (fun a b -> compare (worst b) (worst a)) with_stalls

let ttc_values t =
  List.filter_map (fun k -> k.time_to_consistency) t.keys

let repair_latency_values t =
  List.concat_map (fun k -> Array.to_list k.repair_latencies) t.keys

(* ------------------------------------------------------------------ *)
(* Series and percentiles *)

let sketch values =
  let s = Softstate_util.Sketch.create () in
  List.iter (Softstate_util.Sketch.add s) values;
  s

let percentile values q =
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then nan
  else if n = 1 then arr.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int lo in
    (arr.(lo) *. (1.0 -. frac)) +. (arr.(lo + 1) *. frac)
  end

type depth_point = {
  bucket_start : float;
  nacks : int;     (* NACK/Query events issued in the bucket *)
  repairs : int;   (* Repair events in the bucket *)
  outstanding : int;
      (* repair requests issued but not yet resolved by a completed
         delivery of their key, sampled at the bucket's end *)
}

(* repair requests open at time [x]: issued <= x, resolved after x
   (or never) *)
let open_spans_at spans x =
  Array.fold_left
    (fun acc (issued, resolved) ->
      if
        issued <= x
        && match resolved with None -> true | Some r -> r > x
      then acc + 1
      else acc)
    0 spans

let nack_depth_series t ~bucket =
  if bucket <= 0.0 then
    invalid_arg "Lifecycle.nack_depth_series: bucket must be positive";
  let points = ref [] in
  let cur_start = ref 0.0 in
  let cur_nacks = ref 0 and cur_repairs = ref 0 in
  let flush () =
    points :=
      { bucket_start = !cur_start;
        nacks = !cur_nacks;
        repairs = !cur_repairs;
        outstanding = open_spans_at t.nack_spans (!cur_start +. bucket) }
      :: !points;
    cur_nacks := 0;
    cur_repairs := 0
  in
  Array.iter
    (fun (ev : Trace.event) ->
      while ev.Trace.time >= !cur_start +. bucket do
        flush ();
        cur_start := !cur_start +. bucket
      done;
      match ev.Trace.kind with
      | Trace.Nack | Trace.Query -> incr cur_nacks
      | Trace.Repair -> incr cur_repairs
      | _ -> ())
    t.events;
  flush ();
  List.rev !points
