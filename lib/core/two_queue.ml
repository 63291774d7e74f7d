module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Sched = Softstate_sched
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace

(* Queue entries are (record, generation): a record's generation
   counter advances every time it is (re)enqueued, so an entry is valid
   only while it carries the record's current generation and the
   record still waits in that queue. This gives O(1) lazy removal when
   records die (their state becomes [Dead]), are updated out of the
   cold queue, or are reheated by a NACK — no record is ever queued
   twice validly, and resolving an entry needs no lookup.

   Each queue is a growable ring of entries in two parallel arrays, so
   an enqueue allocates nothing once the ring has grown: cold entries
   live long enough to be promoted, so a boxed entry per enqueue would
   drive the major GC. A popped slot is reset to [filler], so the ring
   keeps no dead record reachable; capacity stays a power of two. *)
type ring = {
  mutable recs : Record.t array;
  mutable gens : int array;
  mutable head : int;
  mutable len : int;
  filler : Record.t;
}

let ring () =
  let filler = Record.make ~key:(-1) ~now:0.0 ~size_bits:1 in
  { recs = Array.make 16 filler; gens = Array.make 16 0; head = 0; len = 0;
    filler }

let push q r gen =
  let cap = Array.length q.gens in
  if q.len = cap then begin
    let grow a fill =
      Array.init (2 * cap) (fun i ->
          if i < cap then a.((q.head + i) land (cap - 1)) else fill)
    in
    q.recs <- grow q.recs q.filler;
    q.gens <- grow q.gens 0;
    q.head <- 0
  end;
  let tail = (q.head + q.len) land (Array.length q.gens - 1) in
  q.recs.(tail) <- r;
  q.gens.(tail) <- gen;
  q.len <- q.len + 1

let pop q =
  assert (q.len > 0);
  let r = q.recs.(q.head) in
  q.recs.(q.head) <- q.filler;
  q.head <- (q.head + 1) land (Array.length q.gens - 1);
  q.len <- q.len - 1;
  r

type t = {
  base : Base.t;
  hot : ring;
  cold : ring;
  sched : Sched.Scheduler.t;
  hot_flow : Sched.Scheduler.flow;
  cold_flow : Sched.Scheduler.flow;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  mutable seq : int;
  mutable sent_hot : int;
  mutable sent_cold : int;
  mutable unicast : Net.Transport.unicast option;
  mutable kick_fn : unit -> unit;
  mutable kick_attached : bool;
}

(* Discard stale heads so backlog status reflects real work. *)
let rec purge state q =
  if q.len > 0 then begin
    let r = q.recs.(q.head) in
    if not (r.Record.gen = q.gens.(q.head) && r.Record.state = state) then begin
      ignore (pop q);
      purge state q
    end
  end

let enqueue t r (state : Record.state) =
  r.Record.gen <- r.Record.gen + 1;
  r.Record.state <- state;
  match state with
  | Hot -> push t.hot r r.Record.gen
  | Cold -> push t.cold r r.Record.gen
  | Idle | In_service | Dead -> invalid_arg "Two_queue.enqueue: not a queue"

let refresh_backlog t =
  purge Hot t.hot;
  purge Cold t.cold;
  Sched.Scheduler.set_backlogged t.sched t.hot_flow (t.hot.len > 0);
  Sched.Scheduler.set_backlogged t.sched t.cold_flow
    (t.cold.len > 0)

let fetch_packet t =
  refresh_backlog t;
  match Sched.Scheduler.select t.sched with
  | None -> None
  | Some flow ->
      let queue = if flow = t.hot_flow then t.hot else t.cold in
      let r =
        (* purge guaranteed a valid head for the selected queue, and
           valid entries refer to live records *)
        pop queue
      in
      assert (r.Record.state <> Dead);
      r.Record.state <- In_service;
      Sched.Scheduler.charge t.sched flow r.Record.size_bits;
      let hot = flow = t.hot_flow in
      if hot then t.sent_hot <- t.sent_hot + 1
      else t.sent_cold <- t.sent_cold + 1;
      let seq = t.seq in
      t.seq <- seq + 1;
      if t.traced then
        Trace.emit t.trace
          (Trace.event
             ~time:(Engine.now (Base.engine t.base))
             ~src:"two_queue" ~detail:(string_of_int r.Record.key)
             ~key:r.Record.key ~packet:seq
             (if hot then Trace.Announce else Trace.Refresh));
      let ann = Base.announce_of t.base ~seq r in
      Some (Net.Packet.stamped ~id:seq ~size_bits:r.Record.size_bits ann)

let wake t = t.kick_fn ()

let serve_completion t ~now key =
  match Table.find (Base.table t.base) key with
  | None -> ()
  | Some r ->
      if Base.death_draw t.base ~now r then ()
        (* the on_death hook already marked the record dead *)
      else begin
        (* After a transmission the record settles in the cold queue
           for background refreshes — unless an update or a NACK
           re-queued it hot while it was in service. *)
        if r.Record.state = In_service then enqueue t r Cold;
        wake t
      end

let reheat t ~now ?(cause = Trace.no_id) key =
  match Table.find (Base.table t.base) key with
  | Some ({ Record.state = Cold; _ } as r) ->
      enqueue t r Hot;
      if t.traced then
        Trace.emit t.trace
          (Trace.event ~time:now ~src:"two_queue"
             ~detail:(string_of_int key) ~key ~parent:cause Trace.Repair);
      wake t;
      true
  | Some _ | None -> false

let create_queues ~base ~mu_hot_bps ~mu_cold_bps
    ?(sched = Sched.Scheduler.Stride) ?obs ~sched_rng () =
  if mu_hot_bps <= 0.0 || mu_cold_bps <= 0.0 then
    invalid_arg "Two_queue.create: rates must be positive";
  let scheduler = Sched.Scheduler.create ~rng:sched_rng sched in
  let hot_flow = Sched.Scheduler.add_flow scheduler ~weight:mu_hot_bps in
  let cold_flow = Sched.Scheduler.add_flow scheduler ~weight:mu_cold_bps in
  let t =
    { base; hot = ring (); cold = ring ();
      sched = scheduler; hot_flow; cold_flow;
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      seq = 0; sent_hot = 0; sent_cold = 0; unicast = None; kick_fn = ignore;
      kick_attached = false }
  in
  Base.set_hooks base
    ~on_arrival:(fun r ->
      (* Inserts and updates are both "new data": they go hot. An
         already-hot record just keeps its place (the announcement
         will carry the latest version anyway). *)
      if r.Record.state <> Hot then enqueue t r Hot;
      wake t)
    ~on_death:(fun r -> r.Record.state <- Dead);
  t

let attach_kick t kick =
  if t.kick_attached then
    invalid_arg "Two_queue.attach_kick: already attached";
  t.kick_attached <- true;
  t.kick_fn <- kick

let attach_unicast t unicast =
  if t.unicast <> None then
    invalid_arg "Two_queue.attach_unicast: already attached";
  t.unicast <- Some unicast;
  attach_kick t (fun () -> unicast.Net.Transport.u_kick ())

let create ~base ~mu_hot_bps ~mu_cold_bps ?sched ?obs ?transport ~loss
    ~link_rng () =
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs (Base.engine base)
  in
  let sched_rng = Softstate_util.Rng.split link_rng in
  let t =
    create_queues ~base ~mu_hot_bps ~mu_cold_bps ?sched ?obs ~sched_rng ()
  in
  let unicast =
    transport.Net.Transport.unicast
      ~rate_bps:(mu_hot_bps +. mu_cold_bps)
      ~loss
      ~on_served:(fun ~now packet ->
        serve_completion t ~now packet.Net.Packet.payload.Base.key)
      ~label:"two_queue.data"
      ~rng:link_rng
      ~fetch:(fun () -> fetch_packet t)
      ~deliver:(fun ~now ann -> Base.deliver t.base ~now ~receiver:0 ann)
      ()
  in
  attach_unicast t unicast;
  t

let sent_hot t = t.sent_hot
let sent_cold t = t.sent_cold
let unicast t = match t.unicast with Some u -> u | None -> assert false
