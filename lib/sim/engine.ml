module Heap = Softstate_util.Heap

type t = {
  mutable clock : float;
  calendar : (t -> unit) Heap.t;
  mutable queued : int; (* lane entries behind their lane's head *)
  mutable events_fired : int;
  mutable high_water : int;
  mutable on_step : (t -> unit) option;
}

let create () =
  { clock = 0.0; calendar = Heap.create (); queued = 0;
    events_fired = 0; high_water = 0; on_step = None }

let now t = t.clock
let pending t = Heap.length t.calendar + t.queued

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
   heap breaks key ties by insertion sequence, and an insert at the
   previous insert's key joins that entry's run, which the root's slot
   walks one callback per [drop_top]. The root is read through the
   heap's slot protocol: [fire] takes the root's slot, runs its
   callback and returns whether the root's run goes on. *)
let[@hot] fire t slot =
  let f = Heap.slot_value t.calendar slot in
  let more = Heap.drop_top t.calendar in
  t.events_fired <- t.events_fired + 1;
  f t;
  (match t.on_step with None -> () | Some g -> g t);
  more

(* The rest of a run stays at the root while it fires: a callback can
   only schedule at [now] or later, and an event at [now] joins the run
   or orders after it. So the run's remaining callbacks fire without
   reading the key again, and the clock (a float box) is set once per
   run. *)
let[@hot] rec fire_run t slot =
  if fire t slot then fire_run t (Heap.top t.calendar)

let[@hot] step t =
  let slot = Heap.top t.calendar in
  if slot < 0 then false
  else begin
    t.clock <- Heap.top_key t.calendar;
    ignore (fire t slot);
    true
  end

let[@hot] rec run_until t horizon =
  let slot = Heap.top t.calendar in
  if slot >= 0 then begin
    let time = Heap.top_key t.calendar in
    if time <= horizon then begin
      t.clock <- time;
      fire_run t slot;
      run_until t horizon
    end
  end

let run ?until t =
  match until with
  | None -> run_until t Float.infinity
  | Some horizon ->
      run_until t horizon;
      if t.clock < horizon then t.clock <- horizon

(* Each occurrence is an ordinary calendar event that re-arms the next
   one after [f] returns. The calendar has no cancellation, so the
   stopper only sets [stopped]: the occurrence already armed still
   fires, but runs nothing and arms nothing. *)
let every t ~period f =
  if not (period > 0.0 && Float.is_finite period) then
    invalid_arg "Engine.every: period must be positive";
  let stopped = ref false in
  let rec occur engine =
    if not !stopped then begin
      f engine;
      if not !stopped then arm engine
    end
  and arm engine = schedule_at engine ~time:(engine.clock +. period) occur in
  arm t;
  fun () ->
    let was_running = not !stopped in
    stopped := true;
    was_running

(* A lane is a FIFO ring of (time, seq, payload) entries for one
   constant delay, in three flat arrays whose length is a power of two.
   Every entry is scheduled at [now + delay] with a freshly minted seq,
   and the clock never goes back, so the ring is sorted by (time, seq)
   and only its head needs a heap entry. That entry's callback is
   [fire], allocated once per lane: it pops the head, puts the next
   entry into the heap under that entry's own (time, seq), and runs
   the handler. An entry therefore leaves the calendar exactly when it
   would have as an event of its own. Lane heads never join or open a
   heap run, so [fire_run] reads the root again after each. *)
type lane = {
  engine : t;
  delay : float;
  handler : t -> int -> unit;
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable first : int; (* ring index of the head *)
  mutable length : int;
  mutable fire : t -> unit;
}

(* Double the ring, unrolled so the head lands at index 0. *)
let lane_grow lane =
  let cap = Array.length lane.seqs in
  let unroll a fill =
    let g = Array.make (2 * cap) fill in
    let tail = cap - lane.first in
    Array.blit a lane.first g 0 tail;
    Array.blit a 0 g tail lane.first;
    g
  in
  lane.times <- unroll lane.times 0.0;
  lane.seqs <- unroll lane.seqs 0;
  lane.payloads <- unroll lane.payloads 0;
  lane.first <- 0

let[@hot] lane_fire lane t =
  let i = lane.first in
  let x = lane.payloads.(i) in
  lane.first <- (i + 1) land (Array.length lane.seqs - 1);
  lane.length <- lane.length - 1;
  if lane.length > 0 then begin
    let j = lane.first in
    t.queued <- t.queued - 1;
    Heap.insert_minted t.calendar ~key:lane.times.(j) ~seq:lane.seqs.(j)
      lane.fire
  end;
  lane.handler t x

let lane t ~delay handler =
  if not (delay >= 0.0) then invalid_arg "Engine.lane: negative delay";
  let cap = 16 in
  let l =
    { engine = t; delay; handler;
      times = Array.make cap 0.0; seqs = Array.make cap 0;
      payloads = Array.make cap 0; first = 0; length = 0; fire = ignore }
  in
  l.fire <- lane_fire l;
  l

let[@hot] lane_schedule lane x =
  let t = lane.engine in
  let time = t.clock +. lane.delay in
  let seq = Heap.mint t.calendar in
  if lane.length = Array.length lane.seqs then lane_grow lane;
  let i = (lane.first + lane.length) land (Array.length lane.seqs - 1) in
  lane.times.(i) <- time;
  lane.seqs.(i) <- seq;
  lane.payloads.(i) <- x;
  if lane.length = 0 then Heap.insert_minted t.calendar ~key:time ~seq lane.fire
  else t.queued <- t.queued + 1;
  lane.length <- lane.length + 1;
  note_depth t
