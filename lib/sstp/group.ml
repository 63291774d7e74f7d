module Engine = Softstate_sim.Engine
module Net = Softstate_net
module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist

type config = {
  mu_total_bps : float;
  member_loss : int -> Net.Loss.t;
  fb_loss : Net.Loss.t;
  mu_hot_bps : float;
  mu_cold_bps : float;
  mu_fb_bps : float;
  summary_period : float;
  repair_timeout : float;
  report_period : float;
  nack_slot : float;
  suppression : bool;
}

let default_config ~mu_total_bps =
  { mu_total_bps;
    member_loss = (fun _ -> Net.Loss.never);
    fb_loss = Net.Loss.never;
    mu_hot_bps = 0.60 *. mu_total_bps;
    mu_cold_bps = 0.25 *. mu_total_bps;
    mu_fb_bps = 0.15 *. mu_total_bps;
    summary_period = 1.0;
    repair_timeout = 2.0;
    report_period = 5.0;
    nack_slot = 0.5;
    suppression = true }

type t = {
  engine : Engine.t;
  config : config;
  sender : Sender.t;
  members : Receiver.t array;
  fanout : Wire.envelope Net.Transport.fanout;
  fb_outbox : Wire.msg Net.Transport.outbox;
  fb_size_bits : Wire.envelope -> int;
  slot_rng : Rng.t;
  (* repair-request tag -> time it was last heard on the (multicast)
     feedback channel; members use it for damping *)
  heard : (string, float) Hashtbl.t;
  mutable feedback_sent : int;
  mutable feedback_suppressed : int;
}

(* Only queries and NACKs are slotted/damped; receiver reports are
   per-member state and always go through. *)
let repair_tag = function
  | Wire.Sig_request { path } -> Some ("q:" ^ path)
  | Wire.Nack { path } -> Some ("n:" ^ path)
  | _ -> None

let heard_recently t ~now tag =
  match Hashtbl.find_opt t.heard tag with
  | Some time -> now -. time <= 2.0 *. t.config.nack_slot
  | None -> false

let prune_heard t now =
  if Hashtbl.length t.heard > 8192 then begin
    let cutoff = now -. (4.0 *. t.config.nack_slot) in
    let stale =
      (* lint: allow D003 commutative: collects a stale set for removal; order never escapes *)
      Hashtbl.fold
        (fun tag time acc -> if time < cutoff then tag :: acc else acc)
        t.heard []
    in
    List.iter (Hashtbl.remove t.heard) stale
  end

let push_feedback t msg =
  t.feedback_sent <- t.feedback_sent + 1;
  (match repair_tag msg with
  | Some tag when t.config.suppression ->
      let now = Engine.now t.engine in
      Hashtbl.replace t.heard tag now;
      prune_heard t now
  | Some _ | None -> ());
  ignore
    (t.fb_outbox.Net.Transport.o_send
       (Net.Packet.make
          ~size_bits:(t.fb_size_bits { Wire.seq = 0; sent_at = 0.0; msg })
          msg))

(* The slotting-and-damping stage between a member's Receiver and the
   shared feedback channel. *)
let offer_feedback t msg =
  match repair_tag msg with
  | None -> push_feedback t msg
  | Some tag ->
      if not t.config.suppression then push_feedback t msg
      else begin
        let now = Engine.now t.engine in
        if heard_recently t ~now tag then
          t.feedback_suppressed <- t.feedback_suppressed + 1
        else
          let delay = Dist.uniform t.slot_rng ~lo:0.0 ~hi:t.config.nack_slot in
          Engine.schedule t.engine ~after:delay (fun engine ->
              let now = Engine.now engine in
              if heard_recently t ~now tag then
                t.feedback_suppressed <- t.feedback_suppressed + 1
              else push_feedback t msg)
      end

let create ?obs ?transport ~engine ~rng ~config ~members () =
  if members < 1 then invalid_arg "Group.create: members >= 1";
  if not (config.nack_slot > 0.0 && Float.is_finite config.nack_slot) then
    invalid_arg "Group.create: nack slot must be positive and finite";
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Net.Transport.single_hop ?obs engine
  in
  let sender_config =
    { Sender.summary_period = config.summary_period;
      mu_hot_bps = config.mu_hot_bps;
      mu_cold_bps = config.mu_cold_bps }
  in
  let sender = Sender.create ?obs ~engine ~config:sender_config () in
  let link_rng = Rng.split rng in
  let fb_rng = Rng.split rng in
  let slot_rng = Rng.split rng in
  let t_cell = ref None in
  let send_feedback msg =
    match !t_cell with Some t -> offer_feedback t msg | None -> ()
  in
  let receiver_config =
    { Receiver.repair_timeout = config.repair_timeout;
      report_period = config.report_period;
      max_repair_retries = 32 }
  in
  let member_receivers =
    Array.init members (fun _ ->
        Receiver.create ?obs ~engine ~config:receiver_config ~send_feedback ())
  in
  let fetch () = Sender.fetch sender ~now:(Engine.now engine) in
  let fanout =
    transport.Net.Transport.fanout
      ~rate_bps:(config.mu_hot_bps +. config.mu_cold_bps)
      ~label:"group.data" ~rng:link_rng ~fetch ()
  in
  Array.iteri
    (fun i receiver ->
      ignore
        (fanout.Net.Transport.f_subscribe ~loss:(config.member_loss i)
           (fun ~now env -> Receiver.handle receiver ~now env)))
    member_receivers;
  let fb_outbox =
    transport.Net.Transport.outbox ~rate_bps:config.mu_fb_bps
      ~loss:config.fb_loss ~label:"group.fb" ~rng:fb_rng
      ~deliver:(fun ~now msg -> Sender.handle_feedback sender ~now msg)
      ()
  in
  let t =
    { engine; config; sender; members = member_receivers; fanout; fb_outbox;
      fb_size_bits = Wire.sizer (); slot_rng; heard = Hashtbl.create 256;
      feedback_sent = 0; feedback_suppressed = 0 }
  in
  t_cell := Some t;
  let (_ : unit -> bool) =
    Engine.every engine ~period:config.summary_period (fun _ ->
        fanout.Net.Transport.f_kick ())
  in
  t

let member t i =
  if i < 0 || i >= Array.length t.members then
    invalid_arg "Group.member: index out of range";
  t.members.(i)

let member_count t = Array.length t.members
let kick t = t.fanout.Net.Transport.f_kick ()

let publish t ~path ~payload =
  Sender.publish t.sender ~path:(Path.of_string path) ~payload ();
  kick t

let member_consistency t receiver =
  let total, matching =
    Namespace.matching_leaves (Sender.namespace t.sender)
      (Receiver.namespace receiver)
  in
  if total = 0 then 1.0 else float_of_int matching /. float_of_int total

let consistency t =
  Array.fold_left (fun acc r -> acc +. member_consistency t r) 0.0 t.members
  /. float_of_int (Array.length t.members)

let min_consistency t =
  Array.fold_left
    (fun acc r -> Float.min acc (member_consistency t r))
    1.0 t.members

let converged t =
  let root = Namespace.root_digest (Sender.namespace t.sender) in
  Array.for_all
    (fun r -> String.equal root (Namespace.root_digest (Receiver.namespace r)))
    t.members

let feedback_sent t = t.feedback_sent
let feedback_suppressed t = t.feedback_suppressed
let data_packets_served t = t.fanout.Net.Transport.f_served ()
