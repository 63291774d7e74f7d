module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Sched = Softstate_sched
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace

(* Queue entries are (key, generation): a record's generation counter
   advances every time it is (re)enqueued, so an entry is valid only if
   it carries the record's current generation. This gives O(1) lazy
   removal when records die, are updated out of the cold queue, or are
   reheated by a NACK — no record is ever queued twice validly. *)

type temp = Hot | Cold | In_service

type info = {
  mutable temp : temp;
  mutable gen : int;
}

type t = {
  base : Base.t;
  hot : (Record.key * int) Queue.t;
  cold : (Record.key * int) Queue.t;
  info : (Record.key, info) Hashtbl.t;
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

let valid_entry t kind (key, gen) =
  match Hashtbl.find_opt t.info key with
  | None -> false
  | Some info -> info.gen = gen && info.temp = kind

(* Discard stale heads so backlog status reflects real work. *)
let purge t kind queue =
  let rec loop () =
    match Queue.peek_opt queue with
    | Some entry when not (valid_entry t kind entry) ->
        ignore (Queue.pop queue);
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let enqueue t r temp =
  let key = r.Record.key in
  let info =
    match Hashtbl.find_opt t.info key with
    | Some info -> info
    | None ->
        let info = { temp; gen = 0 } in
        Hashtbl.replace t.info key info;
        info
  in
  info.gen <- info.gen + 1;
  info.temp <- temp;
  let entry = (key, info.gen) in
  match temp with
  | Hot -> Queue.add entry t.hot
  | Cold -> Queue.add entry t.cold
  | In_service -> invalid_arg "Two_queue.enqueue: In_service"

let refresh_backlog t =
  purge t Hot t.hot;
  purge t Cold t.cold;
  Sched.Scheduler.set_backlogged t.sched t.hot_flow (not (Queue.is_empty t.hot));
  Sched.Scheduler.set_backlogged t.sched t.cold_flow
    (not (Queue.is_empty t.cold))

let fetch_packet t =
  refresh_backlog t;
  match Sched.Scheduler.select t.sched with
  | None -> None
  | Some flow ->
      let queue = if flow = t.hot_flow then t.hot else t.cold in
      let key, _gen =
        (* purge guaranteed a valid head for the selected queue *)
        Queue.pop queue
      in
      let r =
        match Table.find (Base.table t.base) key with
        | Some r -> r
        | None -> assert false (* valid entries refer to live records *)
      in
      (match Hashtbl.find_opt t.info key with
      | Some info -> info.temp <- In_service
      | None -> assert false);
      Sched.Scheduler.charge t.sched flow (float_of_int r.Record.size_bits);
      let hot = flow = t.hot_flow in
      if hot then t.sent_hot <- t.sent_hot + 1
      else t.sent_cold <- t.sent_cold + 1;
      let seq = t.seq in
      t.seq <- seq + 1;
      if t.traced then
        Trace.emit t.trace
          (Trace.event
             ~time:(Engine.now (Base.engine t.base))
             ~src:"two_queue" ~detail:(string_of_int key)
             ~key ~packet:seq
             (if hot then Trace.Announce else Trace.Refresh));
      let ann = Base.announce_of t.base ~seq r in
      Some (Net.Packet.make ~id:seq ~size_bits:r.Record.size_bits ann)

let wake t = t.kick_fn ()

let serve_completion t ~now key =
  match Table.find (Base.table t.base) key with
  | None -> Hashtbl.remove t.info key
  | Some r ->
      if Base.death_draw t.base ~now r then ()
        (* on_death hook already dropped the info entry *)
      else begin
        (* After a transmission the record settles in the cold queue
           for background refreshes — unless an update or a NACK
           re-queued it hot while it was in service. *)
        (match Hashtbl.find_opt t.info key with
        | Some info when info.temp = In_service -> enqueue t r Cold
        | Some _ | None -> ());
        wake t
      end

let reheat t ~now ?(cause = Trace.no_id) key =
  match Table.find (Base.table t.base) key, Hashtbl.find_opt t.info key with
  | Some r, Some info when info.temp = Cold ->
      enqueue t r Hot;
      if t.traced then
        Trace.emit t.trace
          (Trace.event ~time:now ~src:"two_queue"
             ~detail:(string_of_int key) ~key ~parent:cause Trace.Repair);
      wake t;
      true
  | _ -> false

let create_queues ~base ~mu_hot_bps ~mu_cold_bps
    ?(sched = Sched.Scheduler.Stride) ?obs ~sched_rng () =
  if mu_hot_bps <= 0.0 || mu_cold_bps <= 0.0 then
    invalid_arg "Two_queue.create: rates must be positive";
  let scheduler = Sched.Scheduler.create ~rng:sched_rng sched in
  let hot_flow = Sched.Scheduler.add_flow scheduler ~weight:mu_hot_bps in
  let cold_flow = Sched.Scheduler.add_flow scheduler ~weight:mu_cold_bps in
  let t =
    { base; hot = Queue.create (); cold = Queue.create ();
      info = Hashtbl.create 256; sched = scheduler; hot_flow; cold_flow;
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      seq = 0; sent_hot = 0; sent_cold = 0; unicast = None; kick_fn = ignore;
      kick_attached = false }
  in
  Base.set_hooks base
    ~on_arrival:(fun r ->
      (* Inserts and updates are both "new data": they go hot. An
         already-hot record just keeps its place (the announcement
         will carry the latest version anyway). *)
      (match Hashtbl.find_opt t.info r.Record.key with
      | Some info when info.temp = Hot -> ()
      | Some _ | None -> enqueue t r Hot);
      wake t)
    ~on_death:(fun r -> Hashtbl.remove t.info r.Record.key);
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
