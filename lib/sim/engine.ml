module Heap = Softstate_util.Heap

type t = {
  mutable clock : float;
  calendar : (t -> unit) Heap.t;
  mutable events_fired : int;
  mutable high_water : int;
  mutable on_step : (t -> unit) option;
}

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
  Heap.insert t.calendar ~key:time f;
  note_depth t

let schedule t ~after f =
  if not (after >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. after) f

let events_fired t = t.events_fired
let high_water t = t.high_water

let on_step t f =
  t.on_step <-
    (match t.on_step with
    | None -> Some f
    | Some g -> Some (fun engine -> g engine; f engine))

(* Determinism contract: events fire in (time, scheduling order) — the
   heap breaks key ties by insertion sequence. The root is read through
   the heap's slot protocol: [fire] takes the root's slot and the time
   box [Heap.top_key] returned, which becomes the new clock, so a step
   allocates only that box. *)
let[@hot] fire t slot time =
  let f = Heap.slot_value t.calendar slot in
  Heap.drop_top t.calendar;
  t.clock <- time;
  t.events_fired <- t.events_fired + 1;
  f t;
  match t.on_step with None -> () | Some g -> g t

let[@hot] step t =
  let slot = Heap.top t.calendar in
  if slot < 0 then false
  else begin
    fire t slot (Heap.top_key t.calendar);
    true
  end

let[@hot] rec run_until t horizon =
  let slot = Heap.top t.calendar in
  if slot >= 0 then begin
    let time = Heap.top_key t.calendar in
    if time <= horizon then begin
      fire t slot time;
      run_until t horizon
    end
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      run_until t horizon;
      if t.clock < horizon then t.clock <- horizon

(* Each occurrence is an ordinary calendar event that re-arms the next
   one after [f] returns. The calendar has no cancellation, so the
   stopper only sets [stopped]: the occurrence already armed still
   fires, but runs nothing and arms nothing. *)
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
  let stopped = ref false in
  let rec occur engine =
    if not !stopped then begin
      f engine;
      if not !stopped then arm engine
    end
  and arm engine = schedule_at engine ~time:(engine.clock +. delay ()) occur in
  arm t;
  fun () ->
    let was_running = not !stopped in
    stopped := true;
    was_running
