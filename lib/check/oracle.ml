module Experiment = Softstate_core.Experiment
module Trace = Softstate_obs.Trace
module Lifecycle = Softstate_obs.Lifecycle

type violation = { oracle : string; message : string }

type t = { name : string; check : Scenario.outcome -> violation list }

let v oracle fmt = Printf.ksprintf (fun message -> { oracle; message }) fmt

let eps = 1e-9

let in_unit x = x >= -.eps && x <= 1.0 +. eps

(* ------------------------------------------------------------------ *)
(* conservation *)

(* Upper bound on servers that can hold an in-flight packet at the
   horizon: head data link + feedback channel, plus two directed edge
   pipes per cable in topology mode (random graphs can reach the
   complete graph). *)
let server_bound = function
  | Scenario.Sstp _ -> 2
  | Scenario.Gossip _ -> 0 (* rounds are atomic: nothing is in flight *)
  | Scenario.Core c -> (
      match c.Experiment.topology with
      | Experiment.Single_hop -> 2
      | Experiment.Star { leaves } -> 2 + (2 * leaves)
      | Experiment.Chain { hops } -> 2 + (2 * hops)
      | Experiment.Kary_tree { arity; depth } ->
          let nodes = ref 1 and layer = ref 1 in
          for _ = 1 to depth do
            layer := !layer * arity;
            nodes := !nodes + !layer
          done;
          2 + (2 * (!nodes - 1))
      | Experiment.Random_graph { nodes; _ } -> 2 + (nodes * (nodes - 1)))

let substrate_checks note outcome =
  (* the 8 substrate probes a topology registers under its label
     (Experiment uses the default, "topo") *)
  let get n = List.assoc_opt ("topo." ^ n) outcome.Scenario.metrics in
  match
    ( get "injected", get "blackholed_inject", get "blackholed_deliver",
      get "overflowed", get "queued", get "edge_sent", get "edge_delivered",
      get "edge_dropped" )
  with
  | Some inj, Some bhi, Some bhd, Some ovf, Some que, Some snt, Some dlv,
    Some drp ->
      note "conservation:substrate";
      let bad = ref [] in
      let slack = inj -. bhi -. ovf -. que -. snt in
      if Float.abs slack > 0.5 then
        bad :=
          v "conservation"
            "substrate identity broken: injected=%g but blackholed_inject=%g \
             + overflowed=%g + queued=%g + edge_sent=%g (slack %g)"
            inj bhi ovf que snt slack
          :: !bad;
      let serving = snt -. dlv -. drp in
      if serving < -0.5 then
        bad :=
          v "conservation"
            "edge pipes completed more packets than they fetched: \
             edge_sent=%g edge_delivered=%g edge_dropped=%g"
            snt dlv drp
          :: !bad;
      if bhd > dlv +. 0.5 then
        bad :=
          v "conservation"
            "more packets blackholed on delivery (%g) than delivered by edge \
             pipes (%g)" bhd dlv
          :: !bad;
      List.rev !bad
  | _ -> []

(* Per-source trace identity: a [Packet_sent] at a link is a service
   completion, immediately followed by the loss decision, so sources
   that emit sends must balance exactly. Blackhole drops are tagged
   [detail = "fault"] and belong to [fault_drops], not the loss
   processes, so they are excluded; the single-hop multicast channel
   offers every send to each subscriber, hence the multiplier. *)
let trace_checks note outcome =
  if outcome.Scenario.events_dropped > 0 then []
  else begin
    note "conservation:trace";
    let mult_for src =
      match outcome.Scenario.scenario with
      | Scenario.Core
          { Experiment.protocol = Experiment.Multicast { receivers; _ };
            topology = Experiment.Single_hop;
            _ }
        when String.equal src "multicast.data" ->
          receivers
      | _ -> 1
    in
    let tbl : (string, int array) Hashtbl.t = Hashtbl.create 16 in
    let bump src i =
      let c =
        match Hashtbl.find_opt tbl src with
        | Some c -> c
        | None ->
            let c = [| 0; 0; 0 |] in
            Hashtbl.add tbl src c;
            c
      in
      c.(i) <- c.(i) + 1
    in
    List.iter
      (fun ev ->
        match ev.Trace.kind with
        | Trace.Packet_sent -> bump ev.Trace.src 0
        | Trace.Packet_delivered -> bump ev.Trace.src 1
        | Trace.Packet_dropped when not (String.equal ev.Trace.detail "fault")
          ->
            bump ev.Trace.src 2
        | _ -> ())
      outcome.Scenario.events;
    (* report in sorted source order: Hashtbl.fold visits buckets in an
       unspecified order, and the violation list is part of what the
       replay oracle compares *)
    let sources =
      (* lint: allow D003 key harvest only; the very next line sorts, so bucket order cannot leak *)
      List.sort String.compare (Hashtbl.fold (fun src _ acc -> src :: acc) tbl [])
    in
    List.filter_map
      (fun src ->
        let c = Hashtbl.find tbl src in
        if c.(0) = 0 then None
        else
          let expect = c.(0) * mult_for src in
          if expect <> c.(1) + c.(2) then
            Some
              (v "conservation"
                 "trace imbalance at %s: %d sent (x%d offers) but %d \
                  delivered + %d dropped"
                 src c.(0) (mult_for src) c.(1) c.(2))
          else None)
      sources
  end

let conservation note outcome =
  let triple =
    match outcome.Scenario.payload with
    | Scenario.Sstp_result _ ->
        note "conservation:sstp";
        []
    | Scenario.Gossip_result r ->
        note "conservation:gossip";
        let module G = Softstate_core.Gossip in
        (* every contact is classified exactly once *)
        let classified =
          r.G.deliveries + r.G.redundant + r.G.misses + r.G.lost
          + r.G.blackholed
        in
        let bad = ref [] in
        if classified <> r.G.transmissions then
          bad :=
            v "conservation"
              "gossip contacts unaccounted for: transmissions=%d but \
               deliveries=%d + redundant=%d + misses=%d + lost=%d + \
               blackholed=%d = %d"
              r.G.transmissions r.G.deliveries r.G.redundant r.G.misses
              r.G.lost r.G.blackholed classified
            :: !bad;
        let initial =
          match outcome.Scenario.scenario with
          | Scenario.Gossip g -> min g.Experiment.g_initial r.G.nodes
          | _ -> 0
        in
        if r.G.infected <> initial + r.G.deliveries then
          bad :=
            v "conservation"
              "gossip infection ledger broken: infected=%d but initial=%d + \
               deliveries=%d"
              r.G.infected initial r.G.deliveries
            :: !bad;
        List.rev !bad
    | Scenario.Core_result r ->
        note "conservation:core";
        let slack =
          r.Experiment.packets_sent - r.Experiment.packets_delivered
          - r.Experiment.packets_dropped
        in
        let bound = server_bound outcome.Scenario.scenario in
        if
          r.Experiment.packets_sent < 0 || r.Experiment.packets_delivered < 0
          || r.Experiment.packets_dropped < 0
        then
          [ v "conservation" "negative packet counter: sent=%d delivered=%d \
                              dropped=%d"
              r.Experiment.packets_sent r.Experiment.packets_delivered
              r.Experiment.packets_dropped ]
        else if slack < 0 then
          [ v "conservation"
              "more packets completed than were sent: sent=%d delivered=%d \
               dropped=%d (slack %d)"
              r.Experiment.packets_sent r.Experiment.packets_delivered
              r.Experiment.packets_dropped slack ]
        else if slack > bound then
          [ v "conservation"
              "%d packets unaccounted for (max %d can be in service): \
               sent=%d delivered=%d dropped=%d"
              slack bound r.Experiment.packets_sent
              r.Experiment.packets_delivered r.Experiment.packets_dropped ]
        else []
  in
  triple @ substrate_checks note outcome @ trace_checks note outcome

(* ------------------------------------------------------------------ *)
(* clock *)

let clock note outcome =
  note
    (if outcome.Scenario.events = [] then "clock:empty" else "clock:events");
  let bad = ref [] in
  let last = ref neg_infinity in
  let horizon = outcome.Scenario.horizon in
  List.iter
    (fun ev ->
      let t = ev.Trace.time in
      if t < !last -. eps then
        bad :=
          v "clock" "time ran backwards at %s: %g after %g" ev.Trace.src t
            !last
          :: !bad;
      if t < -.eps || t > horizon +. 1e-6 then
        bad :=
          v "clock" "event at %s outside [0, %g]: t=%g" ev.Trace.src horizon t
          :: !bad;
      last := Float.max !last t)
    outcome.Scenario.events;
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* consistency *)

let consistency note outcome =
  let bad = ref [] in
  let unit_check what x =
    (* nan is an instant violation too: none of these quantities is
       allowed to be undefined at the end of a run *)
    if not (in_unit x) then
      bad := v "consistency" "%s = %g outside [0, 1]" what x :: !bad
  in
  (match outcome.Scenario.payload with
  | Scenario.Core_result r ->
      note "consistency:core";
      unit_check "avg_consistency" r.Experiment.avg_consistency;
      unit_check "final_consistency" r.Experiment.final_consistency;
      let last = ref neg_infinity in
      List.iter
        (fun (t, c) ->
          if t < !last -. eps then
            bad :=
              v "consistency" "series time ran backwards: %g after %g" t !last
              :: !bad;
          last := Float.max !last t;
          if t < -.eps || t > outcome.Scenario.horizon +. 1e-6 then
            bad := v "consistency" "series sample at t=%g outside run" t :: !bad;
          unit_check "series value" c)
        r.Experiment.series
  | Scenario.Sstp_result r ->
      note "consistency:sstp";
      unit_check "consistency" r.Scenario.consistency;
      unit_check "avg_consistency" r.Scenario.avg_consistency
  | Scenario.Gossip_result r ->
      note "consistency:gossip";
      (* the infected fraction is a monotone staircase on the round
         grid: time strictly increasing, fraction never decreasing
         (gossip has no uninfection) *)
      let module G = Softstate_core.Gossip in
      let last_t = ref neg_infinity and last_c = ref neg_infinity in
      Array.iter
        (fun (t, c) ->
          if t < !last_t -. eps then
            bad :=
              v "consistency" "series time ran backwards: %g after %g" t
                !last_t
              :: !bad;
          if c < !last_c -. eps then
            bad :=
              v "consistency" "infected fraction decreased: %g after %g" c
                !last_c
              :: !bad;
          unit_check "infected fraction" c;
          last_t := Float.max !last_t t;
          last_c := Float.max !last_c c)
        r.G.series);
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* counters *)

let counters note outcome =
  let bad = ref [] in
  let nonneg what x =
    if x < 0 then bad := v "counters" "%s = %d is negative" what x :: !bad
  in
  (match outcome.Scenario.payload with
  | Scenario.Core_result r ->
      note "counters:core";
      List.iter
        (fun (what, x) -> nonneg what x)
        [ ("sent_hot", r.Experiment.sent_hot);
          ("sent_cold", r.Experiment.sent_cold);
          ("nacks_wanted", r.Experiment.nacks_wanted);
          ("nacks_sent", r.Experiment.nacks_sent);
          ("nacks_suppressed", r.Experiment.nacks_suppressed);
          ("nacks_delivered", r.Experiment.nacks_delivered);
          ("nack_overflows", r.Experiment.nack_overflows);
          ("reheats", r.Experiment.reheats);
          ("deliveries", r.Experiment.deliveries);
          ("transmissions", r.Experiment.transmissions);
          ("false_expiries", r.Experiment.false_expiries);
          ("stale_purged", r.Experiment.stale_purged);
          ("live_at_end", r.Experiment.live_at_end);
          ("fault_transitions", r.Experiment.fault_transitions);
          ("fault_drops", r.Experiment.fault_drops) ];
      if r.Experiment.nacks_delivered > r.Experiment.nacks_sent then
        bad :=
          v "counters" "nacks_delivered %d > nacks_sent %d"
            r.Experiment.nacks_delivered r.Experiment.nacks_sent
          :: !bad;
      if r.Experiment.nacks_sent > r.Experiment.nacks_wanted then
        bad :=
          v "counters" "nacks_sent %d > nacks_wanted %d"
            r.Experiment.nacks_sent r.Experiment.nacks_wanted
          :: !bad;
      if r.Experiment.nacks_suppressed > r.Experiment.nacks_wanted then
        bad :=
          v "counters" "nacks_suppressed %d > nacks_wanted %d"
            r.Experiment.nacks_suppressed r.Experiment.nacks_wanted
          :: !bad;
      if not (in_unit r.Experiment.utilisation) then
        bad :=
          v "counters" "utilisation %g outside [0, 1]"
            r.Experiment.utilisation
          :: !bad;
      let receivers =
        match outcome.Scenario.scenario with
        | Scenario.Core
            { Experiment.protocol = Experiment.Multicast { receivers; _ }; _ }
          ->
            receivers
        | _ -> 1
      in
      if r.Experiment.deliveries > r.Experiment.transmissions * receivers then
        bad :=
          v "counters" "first deliveries %d > transmissions %d x %d receivers"
            r.Experiment.deliveries r.Experiment.transmissions receivers
          :: !bad;
      (match outcome.Scenario.scenario with
      | Scenario.Core { Experiment.topology = Experiment.Single_hop; _ } ->
          note "counters:single-hop";
          if r.Experiment.fault_transitions <> 0 || r.Experiment.fault_drops <> 0
          then
            bad :=
              v "counters"
                "single-hop run reports fault activity: transitions=%d drops=%d"
                r.Experiment.fault_transitions r.Experiment.fault_drops
              :: !bad
      | _ -> ())
  | Scenario.Sstp_result r ->
      note "counters:sstp";
      nonneg "data_packets" r.Scenario.data_packets;
      nonneg "feedback_packets" r.Scenario.feedback_packets;
      if not (in_unit r.Scenario.link_utilisation) then
        bad :=
          v "counters" "link_utilisation %g outside [0, 1]"
            r.Scenario.link_utilisation
          :: !bad
  | Scenario.Gossip_result r ->
      note "counters:gossip";
      let module G = Softstate_core.Gossip in
      List.iter
        (fun (what, x) -> nonneg what x)
        [ ("nodes", r.G.nodes);
          ("rounds", r.G.rounds);
          ("infected", r.G.infected);
          ("transmissions", r.G.transmissions);
          ("deliveries", r.G.deliveries);
          ("redundant", r.G.redundant);
          ("misses", r.G.misses);
          ("lost", r.G.lost);
          ("blackholed", r.G.blackholed) ];
      if r.G.infected > r.G.nodes then
        bad :=
          v "counters" "infected %d > population %d" r.G.infected r.G.nodes
          :: !bad;
      if Array.length r.G.series <> r.G.rounds + 1 then
        bad :=
          v "counters" "series has %d samples for %d rounds (want rounds+1)"
            (Array.length r.G.series) r.G.rounds
          :: !bad;
      (match outcome.Scenario.scenario with
      | Scenario.Gossip g ->
          if r.G.rounds > g.Experiment.g_max_rounds then
            bad :=
              v "counters" "ran %d rounds, budget was %d" r.G.rounds
                g.Experiment.g_max_rounds
              :: !bad
      | _ -> ()));
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* convergence *)

let convergence note outcome =
  match outcome.Scenario.payload with
  | Scenario.Core_result _ | Scenario.Gossip_result _ -> []
  | Scenario.Sstp_result r -> (
      match r.Scenario.converged_after with
      | Some t when t <= outcome.Scenario.horizon +. eps ->
          note "convergence:converged";
          []
      | Some t ->
          [ v "convergence" "claimed convergence at %g beyond horizon %g" t
              outcome.Scenario.horizon ]
      | None ->
          note "convergence:never";
          [ v "convergence"
              "session never converged (roots %s vs %s after %g s of grace)"
              r.Scenario.sender_root r.Scenario.receiver_root
              outcome.Scenario.horizon ])

(* ------------------------------------------------------------------ *)
(* legality: the SSTP namespaces' cached digest state *)

let legality note outcome =
  match outcome.Scenario.payload with
  | Scenario.Core_result _ | Scenario.Gossip_result _ -> []
  | Scenario.Sstp_result r -> (
      note "legality:sstp";
      match r.Scenario.namespaces_legal with
      | Ok () -> []
      | Error m -> [ v "legality" "namespace fold state illegal: %s" m ])

(* ------------------------------------------------------------------ *)
(* replay / jobs (need a runner) *)

let replay note rerun outcome =
  let again = rerun outcome.Scenario.scenario in
  if Stdlib.compare outcome again = 0 then begin
    note "replay:equal";
    []
  end
  else begin
    note "replay:diverged";
    let part =
      if Stdlib.compare outcome.Scenario.payload again.Scenario.payload <> 0
      then "results differ"
      else if
        Stdlib.compare outcome.Scenario.events again.Scenario.events <> 0
      then
        Printf.sprintf "traces differ (%d vs %d events)"
          (List.length outcome.Scenario.events)
          (List.length again.Scenario.events)
      else if
        Stdlib.compare outcome.Scenario.metrics again.Scenario.metrics <> 0
      then "metrics differ"
      else "outcomes differ"
    in
    [ v "replay" "re-running the same scenario diverged: %s" part ]
  end

(* run_many must be jobs-invariant; keep it to short scenarios, it
   costs four extra runs *)
let jobs_horizon = 60.0

let jobs note outcome =
  match outcome.Scenario.scenario with
  | Scenario.Core c when c.Experiment.duration <= jobs_horizon ->
      note "jobs:ran";
      let c = { c with Experiment.obs = None; record_series = false } in
      let s1, r1 = Experiment.run_many ~jobs:1 ~replications:2 c in
      let s2, r2 = Experiment.run_many ~jobs:2 ~replications:2 c in
      if Stdlib.compare (s1, r1) (s2, r2) = 0 then []
      else [ v "jobs" "run_many differs between jobs:1 and jobs:2" ]
  | _ ->
      note "jobs:skipped";
      []

(* ------------------------------------------------------------------ *)
(* backlog: NACK-repair stability *)

(* The depth series is cut into this many buckets of the horizon; the
   instability test compares the first and second halves, so the
   resolution must be even and coarse enough that a bucket holds a few
   slotting delays' worth of activity. *)
let backlog_buckets = 32

type backlog_stats = {
  b_final : int;            (** outstanding in the last observed bucket *)
  b_nack_quarters : int array;
      (** NACK/query issues per run quarter, length 4 *)
  b_repair_total : int;
  b_nack_total : int;
}

let backlog_measure outcome =
  match outcome.Scenario.payload with
  | Scenario.Sstp_result _ | Scenario.Gossip_result _ -> None
  | Scenario.Core_result _ ->
      if
        outcome.Scenario.events_dropped > 0
        || outcome.Scenario.horizon <= 0.0
        || not
             (List.exists
                (fun ev ->
                  match ev.Trace.kind with
                  | Trace.Nack | Trace.Query -> true
                  | _ -> false)
                outcome.Scenario.events)
      then None
      else begin
        let lc = Lifecycle.of_event_list outcome.Scenario.events in
        let bucket =
          outcome.Scenario.horizon /. float_of_int backlog_buckets
        in
        let pts =
          Array.of_list (Lifecycle.nack_depth_series lc ~bucket)
        in
        let n = Array.length pts in
        (* the series stops at the last event: missing tail buckets
           mean the feedback channel went quiet early, which is a
           drained backlog, not a growing one *)
        if n < backlog_buckets / 2 then None
        else begin
          let quarters = Array.make 4 0 in
          let nacks = ref 0 and repairs = ref 0 in
          Array.iteri
            (fun i (p : Lifecycle.depth_point) ->
              let q = min 3 (4 * i / n) in
              quarters.(q) <- quarters.(q) + p.Lifecycle.nacks;
              nacks := !nacks + p.Lifecycle.nacks;
              repairs := !repairs + p.Lifecycle.repairs)
            pts;
          Some
            { b_final = pts.(n - 1).Lifecycle.outstanding;
              b_nack_quarters = quarters;
              b_repair_total = !repairs;
              b_nack_total = !nacks }
        end
      end

(* Thresholds picked against the default fuzz battery. A finite lossy
   run normally shows a *flat* NACK issue rate (steady state, however
   loaded) or a fault-window spike that decays before the horizon;
   linear growth of open repair spans is routine because keys that die
   unrepaired never close their span. The implosion signature is the
   issue rate itself accelerating quarter over quarter all the way to
   the horizon: the repair plant is falling further behind while
   arrivals keep feeding it. *)
let backlog_growth = 1.3
let backlog_late_floor = 64

let backlog_deficit = 3.0

(* The implosion transition is abrupt: once the repair branching ratio
   exceeds one, the NACK rate sweeps from near-zero to the service cap
   within a generation or two. So the reliable growth signature is not
   smooth quarter-over-quarter acceleration (early quarters are often
   exactly zero) but onset without recovery: the final quarter carries
   substantial volume, dwarfs both early quarters, and has not decayed
   from the run's peak quarter — the run ends inside a storm that
   built up during it. Growth alone cannot separate an imploding
   repair loop from an arrival process that merely keeps adding keys
   (refresh traffic, and with it NACK volume, scales with the live
   population), so the second conjunct is the feedback amplification
   ratio: an unstable loop shouts [backlog_deficit] or more NACKs for
   every repair it actually lands, where a damped or subcritical loop
   stays near one-for-one. A loaded steady state is flat (q4 ~ q2) and
   passes; a fault-window spike decays (q4 << peak) and passes. *)
let backlog_unstable m =
  match m.b_nack_quarters with
  | [| q1; q2; q3; q4 |] ->
      let dwarfs early =
        float_of_int q4 >= (backlog_growth *. float_of_int early) +. 1.0
      in
      let peak_q = max (max q1 q2) (max q3 q4) in
      q4 >= backlog_late_floor
      && dwarfs q1 && dwarfs q2
      && float_of_int q4 >= 0.8 *. float_of_int peak_q
      && float_of_int m.b_nack_total
         >= backlog_deficit *. float_of_int m.b_repair_total
  | _ -> false

let backlog note outcome =
  match backlog_measure outcome with
  | None ->
      note "backlog:skipped";
      []
  | Some m ->
      note "backlog:series";
      if backlog_unstable m then begin
        note "backlog:unstable";
        let q = m.b_nack_quarters in
        [ v "backlog"
            "NACK storm builds up and never recovers: %d -> %d -> %d -> %d \
             issues per quarter (%d repairs against %d NACKs, %d spans \
             still open)"
            q.(0) q.(1) q.(2) q.(3) m.b_repair_total m.b_nack_total m.b_final ]
      end
      else []

(* ------------------------------------------------------------------ *)

let names =
  [ "conservation"; "clock"; "consistency"; "counters"; "convergence";
    "legality"; "backlog"; "replay"; "jobs" ]

(* Every coverage bucket an oracle can note; the fuzzer's coverage map
   scores branch coverage against this catalogue. *)
let branches =
  [ "conservation:core"; "conservation:gossip"; "conservation:sstp";
    "conservation:substrate"; "conservation:trace"; "clock:events";
    "clock:empty"; "consistency:core"; "consistency:gossip";
    "consistency:sstp"; "counters:core"; "counters:gossip"; "counters:sstp";
    "counters:single-hop"; "convergence:converged"; "convergence:never";
    "legality:sstp"; "backlog:series"; "backlog:skipped"; "backlog:unstable"; "replay:equal";
    "replay:diverged"; "jobs:ran"; "jobs:skipped" ]

let all ?(note = fun _ -> ()) ?rerun () =
  [ { name = "conservation"; check = conservation note };
    { name = "clock"; check = clock note };
    { name = "consistency"; check = consistency note };
    { name = "counters"; check = counters note };
    { name = "convergence"; check = convergence note };
    { name = "legality"; check = legality note };
    { name = "backlog"; check = backlog note } ]
  @ (match rerun with
    | None -> []
    | Some rerun -> [ { name = "replay"; check = replay note rerun } ])
  @ [ { name = "jobs"; check = jobs note } ]

let select ?note ?rerun wanted =
  match wanted with
  | [] -> Ok (all ?note ?rerun ())
  | wanted -> (
      match List.find_opt (fun w -> not (List.mem w names)) wanted with
      | Some bad ->
          Error
            (Printf.sprintf "unknown oracle %S (have: %s)" bad
               (String.concat ", " names))
      | None ->
          Ok
            (List.filter
               (fun o -> List.mem o.name wanted)
               (all ?note ?rerun ())))

let check oracles outcome =
  List.concat_map (fun o -> o.check outcome) oracles
