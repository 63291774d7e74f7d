module Engine = Softstate_sim.Engine
module Hierarchy = Softstate_sched.Hierarchy
module Net = Softstate_net
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type work =
  | Send_data of Path.t
  | Send_signatures of Path.t
  | Send_remove of Path.t

type config = {
  summary_period : float;
  mu_hot_bps : float;
  mu_cold_bps : float;
}

let default_config ~mu_total_bps =
  { summary_period = 1.0;
    mu_hot_bps = 0.63 *. mu_total_bps;
    mu_cold_bps = 0.27 *. mu_total_bps }

type klass = {
  name : string;
  node : Hierarchy.node;
  queue : work Queue.t;
  mutable sent : int;
}

type t = {
  config : config;
  namespace : Namespace.t;
  mutable classes : klass array;
      (* in registration order; [classes.(0)] is the default class *)
  class_of_path : (string, klass) Hashtbl.t;
  pending : (string, unit) Hashtbl.t;
      (* dedup of queued work, keyed by describe-style tags *)
  sched : Hierarchy.t;
  data_node : Hierarchy.node;
  cold_node : Hierarchy.node;
  reports : Reports.Sender_side.t;
  size_bits : Wire.envelope -> int;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  mutable seq : int;
  mutable next_summary_due : float;
  mutable sent_data : int;
  mutable sent_summaries : int;
  mutable sent_signatures : int;
}

let default_class = "default"

let create ?obs ~engine ~config () =
  if not (config.summary_period > 0.0 && Float.is_finite config.summary_period)
  then invalid_arg "Sender.create: summary period must be positive and finite";
  if
    not
      (config.mu_hot_bps > 0.0
      && Float.is_finite config.mu_hot_bps
      && config.mu_cold_bps > 0.0
      && Float.is_finite config.mu_cold_bps)
  then invalid_arg "Sender.create: rates must be positive and finite";
  let sched = Hierarchy.create () in
  let root = Hierarchy.root sched in
  let data_node =
    Hierarchy.add_child sched ~parent:root ~weight:config.mu_hot_bps
  in
  let cold_node =
    Hierarchy.add_child sched ~parent:root ~weight:config.mu_cold_bps
  in
  let classes =
    [| { name = default_class;
         node = Hierarchy.add_child sched ~parent:data_node ~weight:1.0;
         queue = Queue.create (); sent = 0 } |]
  in
  let t =
    { config; namespace = Namespace.create (); classes;
      class_of_path = Hashtbl.create 64; pending = Hashtbl.create 64; sched;
      data_node; cold_node; reports = Reports.Sender_side.create ();
      size_bits = Wire.sizer ();
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      seq = 0;
      next_summary_due = Engine.now engine; sent_data = 0; sent_summaries = 0;
      sent_signatures = 0 }
  in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m "sender.sent_data" (fun ~now:_ ->
          float_of_int t.sent_data);
      Metrics.probe m "sender.sent_summaries" (fun ~now:_ ->
          float_of_int t.sent_summaries);
      Metrics.probe m "sender.sent_signatures" (fun ~now:_ ->
          float_of_int t.sent_signatures);
      Metrics.probe m "sender.hot_backlog" (fun ~now:_ ->
          float_of_int
            (Array.fold_left (fun acc k -> acc + Queue.length k.queue) 0
               t.classes));
      Metrics.probe m "sender.loss_estimate" (fun ~now:_ ->
          Reports.Sender_side.loss_estimate t.reports)
  | None -> ());
  t

let namespace t = t.namespace

let add_class t ~name ~weight =
  if name = default_class then
    invalid_arg "Sender.add_class: 'default' is reserved";
  if Array.exists (fun k -> String.equal k.name name) t.classes then
    invalid_arg "Sender.add_class: class exists";
  if not (weight > 0.0 && Float.is_finite weight) then
    invalid_arg "Sender.add_class: weight must be positive and finite";
  t.classes <-
    Array.append t.classes
      [| { name; node = Hierarchy.add_child t.sched ~parent:t.data_node ~weight;
           queue = Queue.create (); sent = 0 } |]

(* A session has a handful of classes: a linear scan beats hashing. *)
let find_class t name =
  match Array.find_opt (fun k -> String.equal k.name name) t.classes with
  | Some k -> k
  | None -> raise Not_found

let set_class_weight t ~name weight =
  Hierarchy.set_weight t.sched (find_class t name).node weight

let class_for_path t path =
  if Hashtbl.length t.class_of_path = 0 then t.classes.(0)
  else
    match Hashtbl.find_opt t.class_of_path (Path.to_string path) with
    | Some k -> k
    | None -> t.classes.(0)

let work_tag = function
  | Send_data p -> "d:" ^ Path.to_string p
  | Send_signatures p -> "s:" ^ Path.to_string p
  | Send_remove p -> "r:" ^ Path.to_string p

let enqueue_work t klass work =
  let tag = work_tag work in
  if not (Hashtbl.mem t.pending tag) then begin
    Hashtbl.replace t.pending tag ();
    Queue.add work klass.queue
  end

let enqueue_for_path t path work =
  enqueue_work t (class_for_path t path) work

let publish t ~path ~payload ?meta ?klass () =
  (match klass with
  | Some name ->
      Hashtbl.replace t.class_of_path (Path.to_string path) (find_class t name)
  | None -> ());
  ignore (Namespace.put t.namespace ~path ~payload);
  (match meta with
  | Some m -> Namespace.set_meta t.namespace ~path m
  | None -> ());
  enqueue_for_path t path (Send_data path)

let remove t ~path =
  if Namespace.remove t.namespace ~path then
    enqueue_for_path t path (Send_remove path);
  Hashtbl.remove t.class_of_path (Path.to_string path)

let next_envelope t ~now msg =
  let seq = t.seq in
  t.seq <- seq + 1;
  (if t.traced then
     let kind, detail =
       match msg with
       | Wire.Data { path; _ } -> (Trace.Announce, path)
       | Wire.Summary _ -> (Trace.Summary, "")
       | Wire.Signatures { path; _ } -> (Trace.Repair, path)
       | Wire.Remove { path } -> (Trace.Remove, path)
       | Wire.Sig_request { path } -> (Trace.Query, path)
       | Wire.Nack { path } -> (Trace.Nack, path)
       | Wire.Receiver_report _ -> (Trace.Custom "report", "")
     in
     Trace.emit t.trace
       (Trace.event ~time:now ~src:"sender" ~detail
          ~value:(float_of_int seq) ~packet:seq kind));
  { Wire.seq; sent_at = now; msg }

(* Materialise a queued work item against the *current* namespace:
   a Data send always carries the latest version, and work whose
   subject vanished degrades to a Remove (the receiver must not be
   left with a ghost). *)
let rec materialise t klass ~now =
  match Queue.take_opt klass.queue with
  | None -> None
  | Some work -> (
      Hashtbl.remove t.pending (work_tag work);
      match work with
      | Send_data path -> (
          match Namespace.leaf t.namespace path with
          | Some (payload, version, meta) ->
              t.sent_data <- t.sent_data + 1;
              Some
                (next_envelope t ~now
                   (Wire.Data
                      { path = Path.to_string path; version; payload; meta }))
          | None ->
              t.sent_data <- t.sent_data + 1;
              Some
                (next_envelope t ~now
                   (Wire.Remove { path = Path.to_string path })))
      | Send_remove path ->
          Some
            (next_envelope t ~now (Wire.Remove { path = Path.to_string path }))
      | Send_signatures path -> (
          match Namespace.children t.namespace path with
          | [] ->
              if Namespace.is_leaf t.namespace path then begin
                (* Query hit a leaf: answer with the data itself. *)
                Queue.push (Send_data path) klass.queue;
                materialise t klass ~now
              end
              else
                Some
                  (next_envelope t ~now
                     (Wire.Remove { path = Path.to_string path }))
          | children ->
              t.sent_signatures <- t.sent_signatures + 1;
              Some
                (next_envelope t ~now
                   (Wire.Signatures { path = Path.to_string path; children }))))

let summary_due t ~now = now >= t.next_summary_due

let make_summary t ~now =
  t.next_summary_due <- now +. t.config.summary_period;
  t.sent_summaries <- t.sent_summaries + 1;
  next_envelope t ~now
    (Wire.Summary
       { root_digest = Namespace.root_digest t.namespace;
         leaf_count = Namespace.leaf_count t.namespace })

let node_to_class t node = Array.find_opt (fun k -> k.node = node) t.classes

let refresh_backlog t ~now =
  Array.iter
    (fun k ->
      Hierarchy.set_backlogged t.sched k.node (not (Queue.is_empty k.queue)))
    t.classes;
  Hierarchy.set_backlogged t.sched t.cold_node (summary_due t ~now)

(* Encode once: the size charged to the scheduler is the packet's. *)
let charged t leaf env =
  let size_bits = t.size_bits env in
  Hierarchy.charge t.sched leaf (float_of_int size_bits);
  Some (Net.Packet.stamped ~id:env.Wire.seq ~size_bits env)

let rec fetch t ~now =
  refresh_backlog t ~now;
  match Hierarchy.select t.sched with
  | None -> None
  | Some leaf when leaf = t.cold_node -> charged t leaf (make_summary t ~now)
  | Some leaf -> (
      match node_to_class t leaf with
      | None -> None (* unreachable: every data leaf is a class *)
      | Some klass -> (
          match materialise t klass ~now with
          | Some env ->
              klass.sent <- klass.sent + 1;
              charged t leaf env
          | None ->
              (* the class queue drained to nothing concrete (stale
                 work); its backlog flag is now wrong - re-select *)
              fetch t ~now))

let handle_feedback t ~now:_ msg =
  match msg with
  | Wire.Sig_request { path } ->
      let path = Path.of_string path in
      enqueue_for_path t path (Send_signatures path)
  | Wire.Nack { path } ->
      let path = Path.of_string path in
      enqueue_for_path t path (Send_data path)
  | Wire.Receiver_report _ -> Reports.Sender_side.on_report t.reports msg
  | Wire.Data _ | Wire.Summary _ | Wire.Signatures _ | Wire.Remove _ ->
      invalid_arg "Sender.handle_feedback: not a feedback message"

let class_sent t ~name = (find_class t name).sent
let sent_data t = t.sent_data
let sent_summaries t = t.sent_summaries
let sent_signatures t = t.sent_signatures
