module Heap = Softstate_util.Heap

type t = {
  mutable clock : float;
  calendar : (t -> unit) Heap.t;
  mutable events_fired : int;
  mutable high_water : int;
  mutable on_step : (t -> unit) option;
}

type event = Heap.handle

let create ?(start = 0.0) () =
  { clock = start; calendar = Heap.create ();
    events_fired = 0; high_water = 0; on_step = None }

let now t = t.clock
let pending t = Heap.length t.calendar

let note_depth t =
  let depth = pending t in
  if depth > t.high_water then t.high_water <- depth

(* Guards are written as negated comparisons so that NaN, for which
   every comparison is false, is rejected along with the past. *)
let schedule_at t ~time f =
  if not (time >= t.clock) then
    invalid_arg "Engine.schedule_at: time in the past";
  let e = Heap.insert t.calendar ~key:time f in
  note_depth t;
  e

let schedule t ~after f =
  if not (after >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. after) f

let cancel t e = Heap.remove t.calendar e

let events_fired t = t.events_fired
let high_water t = t.high_water

let on_step t f =
  t.on_step <-
    (match t.on_step with
    | None -> Some f
    | Some g -> Some (fun engine -> g engine; f engine))

(* Determinism contract: events fire in (time, scheduling order) — the
   heap breaks key ties by insertion sequence. The root is read through
   the heap's slot protocol, so a step allocates nothing. *)
let[@hot] step t =
  let slot = Heap.top t.calendar in
  if slot < 0 then false
  else begin
    let time = Heap.top_key t.calendar in
    let f = Heap.slot_value t.calendar slot in
    Heap.drop_top t.calendar;
    t.clock <- time;
    t.events_fired <- t.events_fired + 1;
    f t;
    (match t.on_step with None -> () | Some g -> g t);
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while
        Heap.min_key_or t.calendar ~default:infinity <= horizon && step t
      do
        ()
      done;
      if t.clock < horizon then t.clock <- horizon

(* Each occurrence is an ordinary calendar event that re-arms the next
   one after [f] returns. [next] is the armed occurrence (None while
   [f] runs); [stopped] makes cancellation idempotent and stops the
   re-arm when the cancel lands inside [f]. *)
let every t ~period ?jitter f =
  if not (period > 0.0 && Float.is_finite period) then
    invalid_arg "Engine.every: period must be positive";
  let delay () =
    match jitter with
    | None -> period
    | Some j ->
        let d = period +. j () in
        if not (d > 0.0 && Float.is_finite d) then
          invalid_arg "Engine.every: jitter exceeds period";
        d
  in
  let next = ref None and stopped = ref false in
  let rec arm engine =
    next := Some (schedule_at engine ~time:(engine.clock +. delay ()) occur)
  and occur engine =
    next := None;
    f engine;
    if not !stopped then arm engine
  in
  arm t;
  fun () ->
    if !stopped then false
    else begin
      stopped := true;
      match !next with
      | None -> false
      | Some e ->
          next := None;
          cancel t e
    end
