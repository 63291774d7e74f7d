(* Zero-allocation span tracer for the ledger's traced run.

   Bench code brackets each call that crosses a layer boundary with
   [enter]/[leave]; the engine's [on_step] hook calls [step] after every
   fired event. A span's self time is its duration minus the time its
   child spans cover, so nested spans never count twice, and the loop
   time (the sum of step intervals) splits exactly, in integer
   nanoseconds, into span self time plus a residual:

     sum over kinds of self_ns  +  residual_ns  =  loop_ns

   The residual is the step time outside every span: calendar, link
   and topology service, loss draws, protocol timers.

   Every structure is preallocated by [create], so [enter], [leave] and
   [step] allocate no heap words (the runner's calibration checks it).
   Spans opened while the tracer is armed and within the first
   [record_events] events are also kept as records (kind, start, end,
   parent, event) in a bounded buffer, written out by [dump]. *)

let max_depth = 64

(* Step-interval histogram: exact below 32 ns, then 32 log-linear
   sub-buckets per power of two (about 3% resolution). *)
let sub_bits = 5
let sub = 1 lsl sub_bits
let buckets = sub + ((63 - sub_bits) * sub)

let bucket v =
  if v < sub then if v < 0 then 0 else v
  else begin
    let e = ref sub_bits in
    while v lsr (!e + 1) > 0 do
      incr e
    done;
    sub + ((!e - sub_bits) * sub) + ((v lsr (!e - sub_bits)) - sub)
  end

let bucket_value b =
  if b < sub then float_of_int b
  else
    let e = ((b - sub) / sub) + sub_bits and m = (b - sub) mod sub in
    let lo = (sub + m) lsl (e - sub_bits) and w = 1 lsl (e - sub_bits) in
    float_of_int lo +. (float_of_int w /. 2.0)

type t = {
  clock : unit -> int;
  names : string array;
  calls : int array;
  hits : int array;
  self_ns : int array;
  self_words : float array;
  (* the open-span stack, indexed by depth *)
  st_kind : int array;
  st_start : int array;
  st_child_ns : int array;
  st_words : float array;
  st_child_words : float array;
  st_record : int array;
  mutable depth : int;
  (* loop accounting *)
  mutable armed : bool;
  mutable loop_start : int;
  mutable last_step : int;
  mutable steps : int;
  mutable step_span_ns : int;
  mutable root_ns : int;
  mutable residual_ns : int;
  mutable negative_steps : int;
  hist : int array;
  mutable step_max_ns : int;
  mutable gc_words0 : float;
  mutable gc_major0 : int;
  mutable loop_words : float;
  mutable loop_major : int;
  (* span records *)
  record_events : int;
  rec_kind : int array;
  rec_start : int array;
  rec_end : int array;
  rec_parent : int array;
  rec_event : int array;
  mutable recorded : int;
}

let create ?(record_events = 1 lsl 16) ?(record_capacity = 1 lsl 17) ~clock
    names =
  let n = Array.length names in
  { clock; names;
    calls = Array.make n 0;
    hits = Array.make n 0;
    self_ns = Array.make n 0;
    self_words = Array.make n 0.0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child_ns = Array.make max_depth 0;
    st_words = Array.make max_depth 0.0;
    st_child_words = Array.make max_depth 0.0;
    st_record = Array.make max_depth (-1);
    depth = 0;
    armed = false; loop_start = 0; last_step = 0; steps = 0;
    step_span_ns = 0; root_ns = 0; residual_ns = 0; negative_steps = 0;
    hist = Array.make buckets 0;
    step_max_ns = 0;
    gc_words0 = 0.0; gc_major0 = 0; loop_words = 0.0; loop_major = 0;
    record_events;
    rec_kind = Array.make record_capacity 0;
    rec_start = Array.make record_capacity 0;
    rec_end = Array.make record_capacity 0;
    rec_parent = Array.make record_capacity 0;
    rec_event = Array.make record_capacity 0;
    recorded = 0 }

let enter t k =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Span.enter: nesting too deep";
  t.st_kind.(d) <- k;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0.0;
  let r =
    if
      t.armed && t.steps < t.record_events
      && t.recorded < Array.length t.rec_kind
    then begin
      let r = t.recorded in
      t.recorded <- r + 1;
      t.rec_kind.(r) <- k;
      t.rec_parent.(r) <- (if d > 0 then t.st_record.(d - 1) else -1);
      t.rec_event.(r) <- t.steps;
      r
    end
    else -1
  in
  t.st_record.(d) <- r;
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ();
  let start = t.clock () in
  t.st_start.(d) <- start;
  if r >= 0 then t.rec_start.(r) <- start - t.loop_start

let leave t =
  let now = t.clock () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Span.leave: no open span";
  t.depth <- d;
  let k = t.st_kind.(d) in
  let cum = now - t.st_start.(d) in
  let cum_words = words -. t.st_words.(d) in
  t.calls.(k) <- t.calls.(k) + 1;
  t.self_ns.(k) <- t.self_ns.(k) + cum - t.st_child_ns.(d);
  t.self_words.(k) <- t.self_words.(k) +. cum_words -. t.st_child_words.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + cum;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. cum_words
  end
  else begin
    t.root_ns <- t.root_ns + cum;
    t.step_span_ns <- t.step_span_ns + cum
  end;
  let r = t.st_record.(d) in
  if r >= 0 then t.rec_end.(r) <- now - t.loop_start

(* Count a useful outcome of the innermost open span (a fetch that
   returned a packet, a send the queue accepted). *)
let hit t k = t.hits.(k) <- t.hits.(k) + 1

let step t =
  if t.armed then begin
    let now = t.clock () in
    let interval = now - t.last_step in
    t.last_step <- now;
    t.steps <- t.steps + 1;
    let b = bucket interval in
    t.hist.(b) <- t.hist.(b) + 1;
    if interval > t.step_max_ns then t.step_max_ns <- interval;
    let residual = interval - t.step_span_ns in
    if residual < 0 then t.negative_steps <- t.negative_steps + 1;
    t.residual_ns <- t.residual_ns + residual;
    t.step_span_ns <- 0
  end

(* Start the loop: clear every counter (spans made while building the
   simulation do not count) and take the loop's first timestamp. *)
let arm t =
  if t.depth <> 0 then invalid_arg "Span.arm: a span is open";
  let n = Array.length t.names in
  Array.fill t.calls 0 n 0;
  Array.fill t.hits 0 n 0;
  Array.fill t.self_ns 0 n 0;
  Array.fill t.self_words 0 n 0.0;
  Array.fill t.hist 0 buckets 0;
  t.steps <- 0;
  t.step_span_ns <- 0;
  t.root_ns <- 0;
  t.residual_ns <- 0;
  t.negative_steps <- 0;
  t.step_max_ns <- 0;
  t.recorded <- 0;
  t.gc_major0 <- (Gc.quick_stat ()).Gc.major_collections;
  t.gc_words0 <- Gc.minor_words ();
  t.armed <- true;
  let now = t.clock () in
  t.loop_start <- now;
  t.last_step <- now

(* End the loop; the minor words and major collections it cost are
   kept for [loop_words] / [loop_major]. *)
let disarm t =
  t.armed <- false;
  t.loop_words <- Gc.minor_words () -. t.gc_words0;
  t.loop_major <- (Gc.quick_stat ()).Gc.major_collections - t.gc_major0

let calls t k = t.calls.(k)
let hits t k = t.hits.(k)
let self_ns t k = t.self_ns.(k)
let self_words t k = t.self_words.(k)
let steps t = t.steps
let loop_ns t = t.last_step - t.loop_start
let residual_ns t = t.residual_ns
let root_ns t = t.root_ns
let step_max_ns t = t.step_max_ns
let loop_words t = t.loop_words
let loop_major t = t.loop_major
let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns

(* The attribution identity, exactly: self times sum to the root spans'
   durations, self plus residual is the loop time, every span closed
   inside some step, and no step's spans outran its interval. *)
let identity_holds t =
  let self = total_self_ns t in
  t.depth = 0 && t.step_span_ns = 0 && t.negative_steps = 0
  && self = t.root_ns
  && self + t.residual_ns = loop_ns t

let step_quantile t q =
  if t.steps = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.steps))) in
    let b = ref 0 and seen = ref t.hist.(0) in
    while !seen < rank do
      incr b;
      seen := !seen + t.hist.(!b)
    done;
    bucket_value !b
  end

let dump t oc ~run =
  Printf.fprintf oc
    "# run=%s spans=%d (first %d events); times in ns from loop start\n" run
    t.recorded t.record_events;
  output_string oc "run\tevent\tspan\tparent\tkind\tstart_ns\tend_ns\n";
  for r = 0 to t.recorded - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%d\n" run t.rec_event.(r) r
      t.rec_parent.(r) t.names.(t.rec_kind.(r)) t.rec_start.(r)
      t.rec_end.(r)
  done

(* Cost of one span, from [n] spans around an empty call less the bare
   call, as (ns per span, heap words per span). *)
let calibrate ?(n = 200_000) ~clock () =
  let t = create ~record_events:0 ~record_capacity:1 ~clock [| "empty" |] in
  let f = Sys.opaque_identity (fun () -> ()) in
  let wrapped () =
    enter t 0;
    f ();
    leave t
  in
  for _ = 1 to 1000 do
    wrapped ()
  done;
  let w0 = Gc.minor_words () in
  let c0 = clock () in
  for _ = 1 to n do
    wrapped ()
  done;
  let c1 = clock () in
  let w1 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let c2 = clock () in
  let fn = float_of_int n in
  (float_of_int (c1 - c0 - (c2 - c1)) /. fn, (w1 -. w0) /. fn)
