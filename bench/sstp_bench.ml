(* SSTP experiments (section 6): hierarchical repair efficiency against
   a flat announce-everything baseline, scaling with store size, the
   feedback share as a reliability dial, and multicast groups. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Session = Sstp.Session
module Namespace = Sstp.Namespace

let build_store session ~leaves =
  let groups = max 1 (leaves / 10) in
  for i = 0 to leaves - 1 do
    Session.publish session
      ~path:(Printf.sprintf "db/g%02d/k%04d" (i mod groups) i)
      ~payload:(String.make 120 (Char.chr (97 + (i mod 26))))
  done

let converge_time engine session ~from ~limit =
  let rec loop t =
    if t > from +. limit then nan
    else if Session.converged session then t -. from
    else begin
      Engine.run ~until:(t +. 0.5) engine;
      loop (t +. 0.5)
    end
  in
  loop from

(* Messages and time for a cold-start sync of stores of various sizes
   under loss, versus the flat baseline cost (every record announced
   until received: expected n/(1-p) data packets). *)
let sync () =
  Tables.header
    "SSTP - cold-start synchronisation vs flat announce baseline";
  Printf.printf "%8s %6s | %10s %10s %12s | %12s\n" "leaves" "loss"
    "sync time" "data pkts" "fb msgs" "flat est.";
  Tables.hrule 72;
  List.iter
    (fun (leaves, loss) ->
      let engine = Engine.create () in
      let config =
        { (Session.default_config ~mu_total_bps:512_000.0) with
          Session.loss = Net.Loss.bernoulli loss;
          summary_period = 0.25;
          repair_timeout = 1.0 }
      in
      let session =
        Session.create ~engine ~rng:(Rng.create (leaves + 17)) ~config ()
      in
      build_store session ~leaves;
      let t = converge_time engine session ~from:0.0 ~limit:600.0 in
      let flat_estimate = float_of_int leaves /. (1.0 -. loss) in
      Printf.printf "%8d %6s | %9.1fs %10d %12d | %12.0f\n" leaves
        (Tables.pct loss) t
        (Session.data_packets session)
        (Session.feedback_packets session)
        flat_estimate)
    [ (50, 0.1); (50, 0.4); (200, 0.1); (200, 0.4); (800, 0.1); (800, 0.4) ];
  print_newline ();
  print_endline
    "data packets stay near the flat estimate for a cold start (every leaf";
  print_endline
    "must cross the wire at least once) while feedback stays a small";
  print_endline "fraction - the hierarchy prices repair by divergence, not size."

(* Single-leaf repair in a big store: recursive descent touches
   O(depth) nodes, flat re-announcement touches O(n). *)
let repair () =
  Tables.header "SSTP - single-leaf repair cost vs store size";
  Printf.printf "%8s | %12s %12s %14s\n" "leaves" "repair pkts" "repair time"
    "flat cost";
  Tables.hrule 56;
  List.iter
    (fun leaves ->
      let engine = Engine.create () in
      let loss, set_loss = Net.Loss.controlled () in
      let config =
        { (Session.default_config ~mu_total_bps:512_000.0) with
          Session.loss; summary_period = 0.25; repair_timeout = 1.0 }
      in
      let session =
        Session.create ~engine ~rng:(Rng.create (leaves + 31)) ~config ()
      in
      build_store session ~leaves;
      Engine.run ~until:300.0 engine;
      assert (Session.converged session);
      let data0 = Session.data_packets session in
      let fb0 = Session.feedback_packets session in
      (* diverge one leaf during a partition *)
      set_loss 1.0;
      Session.publish session ~path:"db/g03/k0007" ~payload:"diverged";
      Engine.run ~until:302.0 engine;
      set_loss 0.0;
      let t = converge_time engine session ~from:302.0 ~limit:120.0 in
      let cost =
        Session.data_packets session - data0
        + (Session.feedback_packets session - fb0)
      in
      Printf.printf "%8d | %12d %11.1fs %14d\n" leaves cost t leaves)
    [ 50; 200; 800 ];
  print_newline ();
  print_endline
    "repair cost is flat in the store size (summaries + one root descent)";
  print_endline
    "where a flat protocol would re-announce all n records (section 6.2)."

(* The reliability continuum: consistency as a function of the
   feedback share for the full SSTP stack under churn. *)
let continuum () =
  Tables.header
    "SSTP - reliability continuum (100-leaf store, continuous updates, 30% loss)";
  Printf.printf "%10s | %12s %12s %10s\n" "fb share" "avg consist"
    "data pkts" "fb msgs";
  Tables.hrule 52;
  List.iter
    (fun fb_share ->
      let engine = Engine.create () in
      let mu = 128_000.0 in
      let config =
        { (Session.default_config ~mu_total_bps:mu) with
          Session.loss = Net.Loss.bernoulli 0.3;
          reliability =
            (if fb_share = 0.0 then Session.Announce_only
             else
               Session.Manual
                 { mu_hot_bps = 0.8 *. (1.0 -. fb_share) *. mu;
                   mu_cold_bps = 0.2 *. (1.0 -. fb_share) *. mu;
                   mu_fb_bps = fb_share *. mu });
          summary_period = 0.25 }
      in
      let session = Session.create ~engine ~rng:(Rng.create 53) ~config () in
      Session.track_consistency session ~period:0.25;
      build_store session ~leaves:100;
      (* continuous updates: one leaf every 100 ms *)
      let g = Rng.create 54 in
      let (_ : unit -> bool) =
        Engine.every engine ~period:0.1 (fun _ ->
            let i = Rng.int g 100 in
            Session.publish session
              ~path:(Printf.sprintf "db/g%02d/k%04d" (i mod 10) i)
              ~payload:(Printf.sprintf "tick-%d" (Rng.int g 1000)))
      in
      Engine.run ~until:120.0 engine;
      Printf.printf "%10s | %12.4f %12d %10d\n" (Tables.pct fb_share)
        (Session.average_consistency session)
        (Session.data_packets session)
        (Session.feedback_packets session))
    [ 0.0; 0.05; 0.15; 0.3 ];
  print_newline ();
  print_endline
    "the feedback share is SSTP's reliability dial: 0 is announce/listen,";
  print_endline
    "a moderate share approaches reliable transport under churn (section 6.1)."

(* Multicast SSTP: group-size scaling of a full session - data and
   feedback costs to synchronise a 100-leaf store across n members,
   with and without slotting-and-damping. *)
let group () =
  Tables.header
    "SSTP multicast - group scaling at 30% per-member loss (100 leaves)";
  Printf.printf "%7s %12s | %6s %10s %10s %12s %10s\n" "members"
    "suppression" "conv" "avg c" "data pkts" "fb sent" "suppressed";
  Tables.hrule 80;
  List.iter
    (fun members ->
      List.iter
        (fun suppression ->
          let engine = Engine.create () in
          let config =
            { (Sstp.Group.default_config ~mu_total_bps:256_000.0) with
              Sstp.Group.member_loss = (fun _ -> Net.Loss.bernoulli 0.3);
              summary_period = 0.5; suppression }
          in
          let g =
            Sstp.Group.create ~engine
              ~rng:(Rng.create (members + if suppression then 1000 else 0))
              ~config ~members ()
          in
          for i = 0 to 99 do
            Sstp.Group.publish g
              ~path:(Printf.sprintf "db/g%d/k%03d" (i mod 10) i)
              ~payload:(String.make 100 'x')
          done;
          Engine.run ~until:180.0 engine;
          Printf.printf "%7d %12s | %6b %10.4f %10d %12d %10d\n" members
            (if suppression then "slot+damp" else "naive")
            (Sstp.Group.converged g)
            (Sstp.Group.consistency g)
            (Sstp.Group.data_packets_served g)
            (Sstp.Group.feedback_sent g)
            (Sstp.Group.feedback_suppressed g))
        [ false; true ])
    [ 1; 4; 16; 64 ];
  print_newline ();
  print_endline
    "shared repairs heal the whole group: with damping both the feedback";
  print_endline
    "and the data volume stay near-flat in the group size, the scaling";
  print_endline "property announce/listen repair is chosen for (section 6)."
