module Engine = Softstate_sim.Engine
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type config = {
  repair_timeout : float;
  report_period : float;
  max_repair_retries : int;
}

let default_config =
  { repair_timeout = 2.0; report_period = 5.0; max_repair_retries = 32 }

type t = {
  engine : Engine.t;
  config : config;
  namespace : Namespace.t;
  send_feedback : Wire.msg -> unit;
  reports : Reports.Receiver_side.t;
  trace : Trace.t;
  traced : bool; (* Trace.enabled, hoisted to creation time *)
  outstanding : (string, int) Hashtbl.t; (* repair tag -> retries left *)
  mutable interest : Path.t -> meta:string list -> bool;
  mutable update_callbacks : (Path.t -> string -> unit) list;
  mutable remove_callbacks : (Path.t -> unit) list;
  mutable last_summary_digest : string option;
  mutable reconciled_root : string option;
      (* a sender root digest whose every *interesting* divergence has
         been found already repaired: summaries carrying it need no
         new root query (partial-interest receivers can never match
         the root digest outright) *)
  mutable nacks_sent : int;
  mutable queries_sent : int;
  mutable reports_sent : int;
  mutable packets_received : int;
}

let create ?obs ~engine ~config ~send_feedback () =
  if
    not
      (config.repair_timeout > 0.0
      && Float.is_finite config.repair_timeout
      && config.report_period > 0.0
      && Float.is_finite config.report_period)
  then invalid_arg "Receiver.create: periods must be positive and finite";
  let t =
    { engine; config; namespace = Namespace.create (); send_feedback;
      reports = Reports.Receiver_side.create ();
      trace = Obs.trace_of obs; traced = Trace.enabled (Obs.trace_of obs);
      outstanding = Hashtbl.create 64;
      interest = (fun _ ~meta:_ -> true);
      last_summary_digest = None; reconciled_root = None;
      update_callbacks = []; remove_callbacks = [];
      nacks_sent = 0; queries_sent = 0; reports_sent = 0;
      packets_received = 0 }
  in
  (match obs with
  | Some o ->
      let m = Obs.metrics o in
      Metrics.probe m "receiver.nacks_sent" (fun ~now:_ ->
          float_of_int t.nacks_sent);
      Metrics.probe m "receiver.queries_sent" (fun ~now:_ ->
          float_of_int t.queries_sent);
      Metrics.probe m "receiver.packets_received" (fun ~now:_ ->
          float_of_int t.packets_received);
      Metrics.probe m "receiver.outstanding_repairs" (fun ~now:_ ->
          float_of_int (Hashtbl.length t.outstanding))
  | None -> ());
  let (_ : unit -> bool) =
    Engine.every engine ~period:config.report_period (fun _ ->
        t.reports_sent <- t.reports_sent + 1;
        t.send_feedback (Reports.Receiver_side.flush t.reports))
  in
  t

let set_interest t f = t.interest <- f
let namespace t = t.namespace
let on_update t f = t.update_callbacks <- f :: t.update_callbacks
let on_remove t f = t.remove_callbacks <- f :: t.remove_callbacks

(* Repair requests are reliable-ish: each query/NACK is retransmitted
   on a timer until its response resolves it (the response handler
   removes the tag) or the retry budget runs out. Duplicates of an
   outstanding request are suppressed, so the repair traffic for one
   divergence is one in-flight request per namespace node. *)
let rec arm_retry t tag send =
  Engine.schedule t.engine ~after:t.config.repair_timeout (fun _ ->
      match Hashtbl.find_opt t.outstanding tag with
      | None -> () (* resolved *)
      | Some retries_left ->
          if retries_left <= 0 then Hashtbl.remove t.outstanding tag
          else begin
            Hashtbl.replace t.outstanding tag (retries_left - 1);
            send ();
            arm_retry t tag send
          end)

let request_once t ~now:_ tag send =
  if not (Hashtbl.mem t.outstanding tag) then begin
    Hashtbl.replace t.outstanding tag t.config.max_repair_retries;
    send ();
    arm_retry t tag send
  end

let send_query t ~now ?(parent = Trace.no_id) path =
  request_once t ~now ("q:" ^ Path.to_string path) (fun () ->
      t.queries_sent <- t.queries_sent + 1;
      if t.traced then
        Trace.emit t.trace
          (Trace.event ~time:(Engine.now t.engine) ~src:"receiver"
             ~detail:(Path.to_string path) ~parent Trace.Query);
      t.send_feedback (Wire.Sig_request { path = Path.to_string path }))

let send_nack t ~now ?(parent = Trace.no_id) path =
  request_once t ~now ("n:" ^ Path.to_string path) (fun () ->
      t.nacks_sent <- t.nacks_sent + 1;
      if t.traced then
        Trace.emit t.trace
          (Trace.event ~time:(Engine.now t.engine) ~src:"receiver"
             ~detail:(Path.to_string path) ~parent Trace.Nack);
      t.send_feedback (Wire.Nack { path = Path.to_string path }))

(* Stop repairing below a withdrawn subtree, or retries would fight
   the removal forever. A tag covers the withdrawn path and every path
   below it, segment by segment: withdrawing "db/g1" leaves
   "db/g10"'s repair running. *)
let purge_outstanding_under t path =
  let doomed =
    (* lint: allow D003 commutative: collects an unordered purge set; order never escapes *)
    Hashtbl.fold
      (fun tag _ acc ->
        (* tags are "q:" or "n:" followed by the path *)
        let tagged = Path.of_string (String.sub tag 2 (String.length tag - 2)) in
        if Path.is_prefix ~prefix:path tagged then tag :: acc else acc)
      t.outstanding []
  in
  List.iter (Hashtbl.remove t.outstanding) doomed

let notify_update t path payload =
  List.iter (fun f -> f path payload) (List.rev t.update_callbacks)

let notify_remove t path =
  List.iter (fun f -> f path) (List.rev t.remove_callbacks)

(* [key] is [path]'s wire form. The leaf's digest frames exactly its
   payload and meta tags (which must follow the sender's, or the leaf
   would never match), so the update is news iff either changed. *)
let store_data t key path payload meta =
  (* Clear repair suppression so a future divergence re-queries. *)
  Hashtbl.remove t.outstanding ("n:" ^ key);
  if Namespace.store t.namespace ~path ~payload ~meta then
    notify_update t path payload

let on_signatures t ~now ~parent path (children : Wire.child list) =
  let diverged, withdrawn = Namespace.diff t.namespace path children in
  let acted = ref false in
  (* Descend into every remote child we lack or disagree with. *)
  List.iter
    (fun { Wire.name; digest = _; kind; meta } ->
      let child_path = Path.child path name in
      (* interest sees the *sender's* tags for the node (carried in the
         signatures), which is how a PDA can decline image branches it
         has never fetched *)
      if t.interest child_path ~meta then begin
        acted := true;
        match kind with
        | Wire.Leaf -> send_nack t ~now ~parent child_path
        | Wire.Interior -> send_query t ~now ~parent child_path
      end)
    diverged;
  (* Anything we hold that the sender no longer lists is withdrawn. *)
  List.iter
    (fun name ->
      acted := true;
      let child_path = Path.child path name in
      if Namespace.remove t.namespace ~path:child_path then
        notify_remove t child_path)
    withdrawn;
  if Path.is_root path && not !acted then
    (* Every divergence under this sender state is uninteresting:
       remember it so matching summaries stop triggering queries. *)
    t.reconciled_root <- t.last_summary_digest

let handle t ~now (env : Wire.envelope) =
  t.packets_received <- t.packets_received + 1;
  Reports.Receiver_side.on_packet t.reports ~seq:env.Wire.seq;
  match env.Wire.msg with
  | Wire.Data { path; payload; version = _; meta } ->
      store_data t path (Path.of_string path) payload meta
  | Wire.Summary { root_digest; leaf_count = _ } ->
      t.last_summary_digest <- Some root_digest;
      if
        (not (String.equal root_digest (Namespace.root_digest t.namespace)))
        && t.reconciled_root <> Some root_digest
      then begin
        if t.traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:"receiver" ~packet:env.Wire.seq
               Trace.Digest_mismatch);
        send_query t ~now ~parent:env.Wire.seq Path.root
      end
  | Wire.Signatures { path; children } ->
      let path = Path.of_string path in
      Hashtbl.remove t.outstanding ("q:" ^ Path.to_string path);
      on_signatures t ~now ~parent:env.Wire.seq path children
  | Wire.Remove { path } ->
      let path = Path.of_string path in
      purge_outstanding_under t path;
      if Namespace.remove t.namespace ~path then begin
        if t.traced then
          Trace.emit t.trace
            (Trace.event ~time:now ~src:"receiver"
               ~detail:(Path.to_string path) ~packet:env.Wire.seq
               Trace.Remove);
        notify_remove t path
      end
  | Wire.Sig_request _ | Wire.Nack _ | Wire.Receiver_report _ ->
      invalid_arg "Receiver.handle: feedback message on the data channel"

let nacks_sent t = t.nacks_sent
let queries_sent t = t.queries_sent
let reports_sent t = t.reports_sent
let packets_received t = t.packets_received
