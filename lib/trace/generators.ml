module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist

let sort_trace events =
  List.stable_sort
    (fun a b -> compare a.Trace_event.time b.Trace_event.time)
    events

let random_text rng n =
  String.init n (fun _ -> Char.chr (32 + Rng.int rng 95))

let session_directory ~rng ~duration ?(arrival_rate = 0.05)
    ?(mean_lifetime = 600.0) () =
  if duration <= 0.0 then invalid_arg "session_directory: duration";
  let events = ref [] in
  let emit time op = events := { Trace_event.time; op } :: !events in
  let session_id = ref 0 in
  let t = ref (Dist.exponential rng ~rate:arrival_rate) in
  while !t < duration do
    let id = !session_id in
    incr session_id;
    let path = Printf.sprintf "sessions/%d/sdp" id in
    let lifetime =
      (* Pareto with mean = scale * shape/(shape-1); shape 1.5 *)
      Dist.pareto rng ~shape:1.5 ~scale:(mean_lifetime /. 3.0)
    in
    let birth = !t in
    emit birth
      (Trace_event.Put { path; payload = random_text rng 300 });
    (* occasional mid-life description change *)
    if Rng.bernoulli rng 0.1 && lifetime > 10.0 then begin
      let when_ = birth +. Dist.uniform rng ~lo:1.0 ~hi:lifetime in
      if when_ < duration then
        emit when_ (Trace_event.Put { path; payload = random_text rng 300 })
    end;
    let death = birth +. lifetime in
    if death < duration then emit death (Trace_event.Remove { path });
    t := !t +. Dist.exponential rng ~rate:arrival_rate
  done;
  sort_trace !events

let routing_updates ~rng ~duration ?(prefixes = 200) ?(flap_fraction = 0.05)
    () =
  if duration <= 0.0 then invalid_arg "routing_updates: duration";
  if prefixes <= 0 then invalid_arg "routing_updates: prefixes";
  let events = ref [] in
  let emit time op = events := { Trace_event.time; op } :: !events in
  let route_payload rng =
    Printf.sprintf "nexthop=10.%d.%d.%d metric=%d"
      (Rng.int rng 256) (Rng.int rng 256) (Rng.int rng 256) (Rng.int rng 16)
  in
  for p = 0 to prefixes - 1 do
    let path = Printf.sprintf "routes/prefix%04d" p in
    emit 0.0 (Trace_event.Put { path; payload = route_payload rng });
    let flapping = Rng.bernoulli rng flap_fraction in
    if flapping then begin
      (* alternate withdraw / re-announce *)
      let t = ref (Dist.exponential rng ~rate:0.1) in
      let up = ref true in
      while !t < duration do
        if !up then emit !t (Trace_event.Remove { path })
        else emit !t (Trace_event.Put { path; payload = route_payload rng });
        up := not !up;
        t := !t +. Dist.exponential rng ~rate:0.1
      done
    end
    else begin
      (* calm: periodic metric refresh *)
      let t = ref (Dist.exponential rng ~rate:(1.0 /. 300.0)) in
      while !t < duration do
        emit !t (Trace_event.Put { path; payload = route_payload rng });
        t := !t +. Dist.exponential rng ~rate:(1.0 /. 300.0)
      done
    end
  done;
  sort_trace !events

let flash_crowd ~rng ~duration ?(keys = 32) ?(base_rate = 2.0) ?(mult = 8.0)
    ?(period = 60.0) ?(dwell = 10.0) ?(zipf_s = 1.1) () =
  if duration <= 0.0 then invalid_arg "flash_crowd: duration";
  if keys <= 0 then invalid_arg "flash_crowd: keys";
  if base_rate <= 0.0 then invalid_arg "flash_crowd: base_rate";
  (* the parameter sanity checks live in Dist.burst_interarrival *)
  let table = Dist.Zipf_table.create ~n:keys ~s:zipf_s in
  let versions = Array.make keys 0 in
  let events = ref [] in
  let emit time op = events := { Trace_event.time; op } :: !events in
  (* seed every key once so the audience has something to rush *)
  for k = 0 to keys - 1 do
    emit 0.0
      (Trace_event.Put
         { path = Printf.sprintf "flash/key%03d" k; payload = "v0" })
  done;
  let t = ref (Dist.burst_interarrival rng ~rate:base_rate ~mult ~period
                 ~dwell ~now:0.0) in
  while !t < duration do
    let k = Dist.Zipf_table.draw table rng - 1 in
    versions.(k) <- versions.(k) + 1;
    emit !t
      (Trace_event.Put
         { path = Printf.sprintf "flash/key%03d" k;
           payload = Printf.sprintf "v%d" versions.(k) });
    t := !t +. Dist.burst_interarrival rng ~rate:base_rate ~mult ~period
                 ~dwell ~now:!t
  done;
  sort_trace !events

let stock_ticker ~rng ~duration ?(symbols = 100) ?(update_rate = 20.0) () =
  if duration <= 0.0 then invalid_arg "stock_ticker: duration";
  if symbols <= 0 then invalid_arg "stock_ticker: symbols";
  let table = Dist.Zipf_table.create ~n:symbols ~s:1.1 in
  let prices = Array.init symbols (fun _ -> 20.0 +. (Rng.float rng *. 480.0)) in
  let events = ref [] in
  let emit time op = events := { Trace_event.time; op } :: !events in
  (* initial quote for every symbol *)
  for s = 0 to symbols - 1 do
    emit 0.0
      (Trace_event.Put
         { path = Printf.sprintf "quotes/sym%03d" s;
           payload = Printf.sprintf "%.2f" prices.(s) })
  done;
  let t = ref (Dist.exponential rng ~rate:update_rate) in
  while !t < duration do
    let s = Dist.Zipf_table.draw table rng - 1 in
    (* small multiplicative random walk *)
    prices.(s) <- prices.(s) *. (1.0 +. ((Rng.float rng -. 0.5) *. 0.01));
    emit !t
      (Trace_event.Put
         { path = Printf.sprintf "quotes/sym%03d" s;
           payload = Printf.sprintf "%.2f" prices.(s) });
    t := !t +. Dist.exponential rng ~rate:update_rate
  done;
  sort_trace !events
