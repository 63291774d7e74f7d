module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Sched = Softstate_sched.Scheduler
module Experiment = Softstate_core.Experiment
module Base = Softstate_core.Base
module Consistency = Softstate_core.Consistency
module Obs = Softstate_obs.Obs
module Trace = Softstate_obs.Trace
module Metrics = Softstate_obs.Metrics
module Session = Sstp.Session
module Workload = Softstate_core.Workload
module Tevent = Softstate_trace.Trace_event
module Generators = Softstate_trace.Generators

(* What drives the session's puts: the classic evenly-spread publish
   script, or a flash-crowd trace from lib/trace/generators. *)
type sstp_workload =
  | Script
  | Flash of {
      f_keys : int;
      f_rate : float;
      f_mult : float;
      f_period : float;
      f_dwell : float;
      f_zipf : float;
    }

type sstp = {
  s_seed : int;
  mu_total_kbps : float;
  s_loss : Experiment.loss_spec;
  publishes : int;
  publish_window : float;
  removes : int;
  s_duration : float;
  summary_period : float;
  workload : sstp_workload;
}

type t =
  | Core of Experiment.config
  | Sstp of sstp
  | Gossip of Experiment.gossip_config

(* ------------------------------------------------------------------ *)
(* Generation *)

let choice rng arr = arr.(Rng.int rng (Array.length arr))
let range rng lo hi = lo +. (Rng.float rng *. (hi -. lo))

(* Fault windows print through Fault.spec_to_string's %g, so keep
   their floats on a coarse grid that %g reproduces exactly. *)
let q2 x = Float.of_int (int_of_float ((x *. 100.0) +. 0.5)) /. 100.0
let q4 x = Float.of_int (int_of_float ((x *. 10000.0) +. 0.5)) /. 10000.0

(* Conservative element counts per topology kind: [cables] is a lower
   bound (random graphs may have more), [nodes] is exact. *)
let topo_bounds = function
  | Experiment.Single_hop -> (0, 2)
  | Experiment.Star { leaves } -> (leaves, leaves + 1)
  | Experiment.Chain { hops } -> (hops, hops + 1)
  | Experiment.Kary_tree { arity; depth } ->
      let nodes = ref 1 and layer = ref 1 in
      for _ = 1 to depth do
        layer := !layer * arity;
        nodes := !nodes + !layer
      done;
      (!nodes - 1, !nodes)
  | Experiment.Random_graph { nodes; _ } -> (nodes - 1, nodes)

let gen_fault rng ~cables ~nodes ~duration =
  let window () =
    let from_ = q2 (range rng 0.0 (duration *. 0.5)) in
    let till = q2 (from_ +. range rng 1.0 (duration *. 0.4)) in
    (from_, till)
  in
  match Rng.int rng 7 with
  | 0 ->
      let from_, till = window () in
      Net.Fault.Cable_window { cable = Rng.int rng cables; from_; till }
  | 1 ->
      (* spare node 0: crashing the source for a window is legal but
         makes almost every oracle vacuous *)
      let from_, till = window () in
      Net.Fault.Node_window { node = 1 + Rng.int rng (nodes - 1); from_; till }
  | 2 ->
      let from_, till = window () in
      Net.Fault.Partition_window { from_; till }
  | 3 ->
      Net.Fault.Flap_process
        { rate_per_s = q4 (range rng 0.005 0.05);
          mean_downtime = q2 (range rng 1.0 10.0) }
  | 4 ->
      Net.Fault.Churn_process
        { rate_per_s = q4 (range rng 0.005 0.05);
          mean_downtime = q2 (range rng 1.0 10.0) }
  | 5 ->
      (* correlated storm: several outages landing in one window *)
      let from_, till = window () in
      Net.Fault.Storm
        { count = 2 + Rng.int rng 4;
          mean_downtime = q2 (range rng 1.0 10.0);
          from_;
          till }
  | _ ->
      Net.Fault.Churn_wave
        { period = q2 (range rng 5.0 20.0);
          fraction = q2 (range rng 0.2 0.6);
          downtime = q2 (range rng 1.0 8.0) }

let gen_core rng =
  let duration = choice rng [| 50.0; 100.0; 200.0; 400.0 |] in
  let mu_hot = range rng 10.0 50.0 in
  let mu_cold = range rng 5.0 25.0 in
  let mu_fb = range rng 2.0 12.0 in
  let nack_bits = choice rng [| 100; 500; 1000 |] in
  let receivers = 2 + Rng.int rng 7 in
  let protocol =
    match Rng.int rng 4 with
    | 0 -> Experiment.Open_loop { mu_data_kbps = mu_hot +. mu_cold }
    | 1 -> Experiment.Two_queue { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold }
    | 2 ->
        Experiment.Feedback
          { mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold; mu_fb_kbps = mu_fb;
            nack_bits; fb_lossy = Rng.bool rng }
    | _ ->
        Experiment.Multicast
          { receivers; mu_hot_kbps = mu_hot; mu_cold_kbps = mu_cold;
            mu_fb_kbps = mu_fb; nack_bits; suppression = Rng.bool rng;
            nack_slot = range rng 0.01 0.5 }
  in
  let topology =
    match Rng.int rng 5 with
    | 0 -> Experiment.Single_hop
    | 1 -> Experiment.Star { leaves = 2 + Rng.int rng 5 }
    | 2 -> Experiment.Chain { hops = 2 + Rng.int rng 4 }
    | 3 -> Experiment.Kary_tree { arity = 2 + Rng.int rng 2; depth = 2 }
    | _ ->
        Experiment.Random_graph
          { nodes = 4 + Rng.int rng 5;
            edge_prob = q2 (range rng 0.3 0.8) }
  in
  let faults =
    match topology with
    | Experiment.Single_hop -> []
    | _ ->
        let cables, nodes = topo_bounds topology in
        let n =
          match Rng.int rng 10 with 0 | 1 | 2 -> 0 | 3 | 4 | 5 | 6 | 7 -> 1 | _ -> 2
        in
        List.init n (fun _ -> gen_fault rng ~cables ~nodes ~duration)
  in
  let loss =
    if Rng.bool rng then Experiment.Bernoulli (Rng.float rng *. 0.5)
    else
      Experiment.Gilbert_elliott
        { p_good_to_bad = range rng 0.001 0.05;
          p_bad_to_good = range rng 0.05 0.3;
          loss_good = Rng.float rng *. 0.05;
          loss_bad = range rng 0.3 0.9 }
  in
  let death =
    match Rng.int rng 3 with
    | 0 -> Base.Per_service (range rng 0.05 0.35)
    | 1 -> Base.Lifetime_fixed (range rng 10.0 70.0)
    | _ -> Base.Lifetime_exp (range rng 10.0 70.0)
  in
  let expiry =
    match Rng.int rng 3 with
    | 0 -> Base.No_expiry
    | 1 ->
        Base.Refresh_timeout
          { multiple = range rng 2.0 6.0; sweep_period = range rng 0.5 2.5 }
    | _ -> Base.Refresh_wheel { multiple = range rng 2.0 6.0 }
  in
  let arrival =
    (* 1-in-3 flash crowds; within those, half get a Zipf-skewed
       update-target popularity on top of the burst shape *)
    match Rng.int rng 3 with
    | 0 ->
        let period = q2 (range rng 5.0 30.0) in
        Workload.Flash_crowd
          { mult = q2 (range rng 2.0 10.0);
            period;
            dwell = q2 (range rng 1.0 (period *. 0.5));
            zipf_s = (if Rng.bool rng then 0.0 else q2 (range rng 0.6 1.4)) }
    | _ -> Workload.Poisson
  in
  Core
    { Experiment.seed = 1 + Rng.int rng 1_000_000;
      duration;
      lambda_kbps = range rng 2.0 30.0;
      size_bits = choice rng [| 200; 500; 1000; 2000 |];
      death;
      expiry;
      update_fraction = (if Rng.bool rng then 0.0 else Rng.float rng);
      arrival;
      loss;
      protocol;
      topology;
      faults;
      sched = choice rng [| Sched.Lottery; Sched.Stride; Sched.Wfq; Sched.Drr |];
      empty_policy =
        choice rng
          [| Consistency.Empty_is_consistent; Consistency.Empty_is_zero;
             Consistency.Empty_holds_last |];
      record_series = true;
      obs = None }

let gen_sstp rng =
  let s_duration = range rng 40.0 120.0 in
  (* loss kept moderate so the convergence oracle's +300 s grace
     window is honestly sufficient *)
  let s_loss =
    if Rng.bool rng then Experiment.Bernoulli (Rng.float rng *. 0.4)
    else
      Experiment.Gilbert_elliott
        { p_good_to_bad = range rng 0.001 0.05;
          p_bad_to_good = range rng 0.1 0.4;
          loss_good = Rng.float rng *. 0.05;
          loss_bad = range rng 0.3 0.7 }
  in
  let publishes = 5 + Rng.int rng 46 in
  let workload =
    match Rng.int rng 3 with
    | 0 ->
        let f_period = range rng 8.0 25.0 in
        Flash
          { f_keys = 8 + Rng.int rng 25;
            f_rate = range rng 1.0 4.0;
            f_mult = range rng 3.0 10.0;
            f_period;
            f_dwell = range rng 1.0 (f_period *. 0.4);
            f_zipf = range rng 0.8 1.3 }
    | _ -> Script
  in
  Sstp
    { s_seed = 1 + Rng.int rng 1_000_000;
      mu_total_kbps = range rng 20.0 200.0;
      s_loss;
      publishes;
      publish_window = s_duration *. range rng 0.2 0.5;
      removes = Rng.int rng (1 + (publishes / 3));
      s_duration;
      summary_period = range rng 0.5 2.0;
      workload }

let gen_gossip rng =
  (* kept small: the fuzzer wants many scenarios per second, and every
     oracle below is size-independent *)
  let g_topology =
    match Rng.int rng 5 with
    | 0 -> Experiment.Single_hop (* uniform mixing over g_nodes *)
    | 1 -> Experiment.Star { leaves = 3 + Rng.int rng 38 }
    | 2 -> Experiment.Chain { hops = 3 + Rng.int rng 38 }
    | 3 ->
        Experiment.Kary_tree { arity = 2 + Rng.int rng 2; depth = 2 + Rng.int rng 3 }
    | _ ->
        Experiment.Random_graph
          { nodes = 10 + Rng.int rng 190; edge_prob = q2 (range rng 0.05 0.5) }
  in
  Gossip
    { Experiment.g_seed = 1 + Rng.int rng 1_000_000;
      g_topology;
      g_nodes = 20 + Rng.int rng 1980;
      g_mode = (if Rng.bool rng then Softstate_core.Gossip.Push
                else Softstate_core.Gossip.Push_pull);
      g_fanout = 1 + Rng.int rng 3;
      g_loss = Rng.float rng *. 0.5;
      g_round_period = range rng 0.25 2.0;
      g_max_rounds = 8 + Rng.int rng 41;
      g_initial = 1 + Rng.int rng 3;
      g_target = choice rng [| 0.5; 0.9; 1.0 |] }

let generate rng =
  match Rng.int rng 8 with
  | 0 | 1 -> gen_sstp rng (* sstp stays 1-in-4 *)
  | 2 | 3 -> gen_gossip rng
  | _ -> gen_core rng

(* ------------------------------------------------------------------ *)
(* Textual form *)

let f17 = Printf.sprintf "%.17g"

let loss_to_string = function
  | Experiment.Bernoulli p -> Printf.sprintf "b:%s" (f17 p)
  | Experiment.Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good;
                                 loss_bad } ->
      Printf.sprintf "ge:%s:%s:%s:%s" (f17 p_good_to_bad) (f17 p_bad_to_good)
        (f17 loss_good) (f17 loss_bad)

let loss_of_string s =
  match String.split_on_char ':' s with
  | [ "b"; p ] -> (
      match float_of_string_opt p with
      | Some p -> Ok (Experiment.Bernoulli p)
      | None -> Error ("bad loss probability " ^ p))
  | [ "ge"; a; b; c; d ] -> (
      match
        ( float_of_string_opt a, float_of_string_opt b, float_of_string_opt c,
          float_of_string_opt d )
      with
      | Some p_good_to_bad, Some p_bad_to_good, Some loss_good, Some loss_bad
        ->
          Ok
            (Experiment.Gilbert_elliott
               { p_good_to_bad; p_bad_to_good; loss_good; loss_bad })
      | _ -> Error ("bad gilbert-elliott spec " ^ s))
  | _ -> Error ("bad loss spec " ^ s ^ " (want b:P or ge:PGB:PBG:LG:LB)")

let protocol_to_string = function
  | Experiment.Open_loop { mu_data_kbps } ->
      Printf.sprintf "open:%s" (f17 mu_data_kbps)
  | Experiment.Two_queue { mu_hot_kbps; mu_cold_kbps } ->
      Printf.sprintf "twoq:%s:%s" (f17 mu_hot_kbps) (f17 mu_cold_kbps)
  | Experiment.Feedback { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
                          fb_lossy } ->
      Printf.sprintf "fb:%s:%s:%s:%d:%b" (f17 mu_hot_kbps) (f17 mu_cold_kbps)
        (f17 mu_fb_kbps) nack_bits fb_lossy
  | Experiment.Multicast { receivers; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps;
                           nack_bits; suppression; nack_slot } ->
      Printf.sprintf "mc:%d:%s:%s:%s:%d:%b:%s" receivers (f17 mu_hot_kbps)
        (f17 mu_cold_kbps) (f17 mu_fb_kbps) nack_bits suppression
        (f17 nack_slot)

let protocol_of_string s =
  let fl x = float_of_string_opt x in
  let it x = int_of_string_opt x in
  let bo x = bool_of_string_opt x in
  match String.split_on_char ':' s with
  | [ "open"; mu ] -> (
      match fl mu with
      | Some mu_data_kbps -> Ok (Experiment.Open_loop { mu_data_kbps })
      | None -> Error ("bad protocol " ^ s))
  | [ "twoq"; h; c ] -> (
      match (fl h, fl c) with
      | Some mu_hot_kbps, Some mu_cold_kbps ->
          Ok (Experiment.Two_queue { mu_hot_kbps; mu_cold_kbps })
      | _ -> Error ("bad protocol " ^ s))
  | [ "fb"; h; c; f; n; l ] -> (
      match (fl h, fl c, fl f, it n, bo l) with
      | Some mu_hot_kbps, Some mu_cold_kbps, Some mu_fb_kbps, Some nack_bits,
        Some fb_lossy ->
          Ok
            (Experiment.Feedback
               { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits; fb_lossy })
      | _ -> Error ("bad protocol " ^ s))
  | [ "mc"; r; h; c; f; n; sup; slot ] -> (
      match (it r, fl h, fl c, fl f, it n, bo sup, fl slot) with
      | Some receivers, Some mu_hot_kbps, Some mu_cold_kbps, Some mu_fb_kbps,
        Some nack_bits, Some suppression, Some nack_slot ->
          Ok
            (Experiment.Multicast
               { receivers; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
                 suppression; nack_slot })
      | _ -> Error ("bad protocol " ^ s))
  | _ -> Error ("bad protocol " ^ s)

let topology_to_string = function
  | Experiment.Single_hop -> "single-hop"
  | Experiment.Star { leaves } -> Printf.sprintf "star:%d" leaves
  | Experiment.Chain { hops } -> Printf.sprintf "chain:%d" hops
  | Experiment.Kary_tree { arity; depth } ->
      Printf.sprintf "tree:%d:%d" arity depth
  | Experiment.Random_graph { nodes; edge_prob } ->
      (* %.17g, not %g: random edge probabilities must round-trip *)
      Printf.sprintf "random:%d:%s" nodes (f17 edge_prob)

(* Total over what the builders accept: a shape that parses but that
   [Experiment.run] would reject (or, for a NaN [edge_prob], silently
   run as a bare chain) is an [Error] here. *)
let topology_of_string s =
  let pos x =
    match int_of_string_opt x with Some n when n >= 1 -> Some n | _ -> None
  in
  let bad = Error ("bad topology " ^ s) in
  match String.split_on_char ':' s with
  | [ "single-hop" ] -> Ok Experiment.Single_hop
  | [ "star"; n ] -> (
      match pos n with
      | Some leaves -> Ok (Experiment.Star { leaves })
      | None -> bad)
  | [ "chain"; n ] -> (
      match pos n with
      | Some hops -> Ok (Experiment.Chain { hops })
      | None -> bad)
  | [ "tree"; a; d ] -> (
      match (pos a, pos d) with
      | Some arity, Some depth -> Ok (Experiment.Kary_tree { arity; depth })
      | _ -> bad)
  | [ "random"; n; p ] -> (
      match (pos n, float_of_string_opt p) with
      | Some nodes, Some edge_prob
        when nodes >= 2 && edge_prob >= 0.0 && edge_prob <= 1.0 ->
          Ok (Experiment.Random_graph { nodes; edge_prob })
      | _ -> bad)
  | _ -> bad

let death_to_string = function
  | Base.Per_service p -> Printf.sprintf "service:%s" (f17 p)
  | Base.Lifetime_fixed ttl -> Printf.sprintf "fixed:%s" (f17 ttl)
  | Base.Lifetime_exp mean -> Printf.sprintf "exp:%s" (f17 mean)

let death_of_string s =
  match String.split_on_char ':' s with
  | [ "service"; p ] -> (
      match float_of_string_opt p with
      | Some p -> Ok (Base.Per_service p)
      | None -> Error ("bad death " ^ s))
  | [ "fixed"; t ] -> (
      match float_of_string_opt t with
      | Some t -> Ok (Base.Lifetime_fixed t)
      | None -> Error ("bad death " ^ s))
  | [ "exp"; m ] -> (
      match float_of_string_opt m with
      | Some m -> Ok (Base.Lifetime_exp m)
      | None -> Error ("bad death " ^ s))
  | _ -> Error ("bad death " ^ s)

(* the expiry codec lives with the spec itself; softstate_sim_cli
   shares it *)
let expiry_to_string = Base.expiry_to_string
let expiry_of_string = Base.expiry_of_string

let empty_to_string = function
  | Consistency.Empty_is_consistent -> "consistent"
  | Consistency.Empty_is_zero -> "zero"
  | Consistency.Empty_holds_last -> "last"

let empty_of_string = function
  | "consistent" -> Ok Consistency.Empty_is_consistent
  | "zero" -> Ok Consistency.Empty_is_zero
  | "last" -> Ok Consistency.Empty_holds_last
  | s -> Error ("bad empty policy " ^ s)

let faults_to_string = function
  | [] -> "-"
  | specs -> String.concat "," (List.map Net.Fault.spec_to_string specs)

let faults_of_string = function
  | "-" -> Ok []
  | s -> Net.Fault.specs_of_string s

let arrival_to_string = Workload.shape_to_string

let arrival_of_string s =
  match Workload.shape_of_string s with
  | Some shape -> Ok shape
  | None -> Error ("bad arrival shape " ^ s)

let sstp_workload_to_string = function
  | Script -> "script"
  | Flash { f_keys; f_rate; f_mult; f_period; f_dwell; f_zipf } ->
      Printf.sprintf "flash:%d:%s:%s:%s:%s:%s" f_keys (f17 f_rate) (f17 f_mult)
        (f17 f_period) (f17 f_dwell) (f17 f_zipf)

let sstp_workload_of_string s =
  if String.equal s "script" then Ok Script
  else
    match String.split_on_char ':' s with
    | [ "flash"; k; r; m; p; d; z ] -> (
        match
          ( int_of_string_opt k, float_of_string_opt r, float_of_string_opt m,
            float_of_string_opt p, float_of_string_opt d,
            float_of_string_opt z )
        with
        | Some f_keys, Some f_rate, Some f_mult, Some f_period, Some f_dwell,
          Some f_zipf
          when f_keys > 0 && f_rate > 0.0 ->
            Ok (Flash { f_keys; f_rate; f_mult; f_period; f_dwell; f_zipf })
        | _ -> Error ("bad sstp workload " ^ s))
    | _ -> Error ("bad sstp workload " ^ s)

let to_string = function
  | Core c ->
      String.concat " "
        [ "core";
          "seed=" ^ string_of_int c.Experiment.seed;
          "dur=" ^ f17 c.duration;
          "lambda=" ^ f17 c.lambda_kbps;
          "size=" ^ string_of_int c.size_bits;
          "death=" ^ death_to_string c.death;
          "expiry=" ^ expiry_to_string c.expiry;
          "uf=" ^ f17 c.update_fraction;
          "arrival=" ^ arrival_to_string c.arrival;
          "loss=" ^ loss_to_string c.loss;
          "proto=" ^ protocol_to_string c.protocol;
          "topo=" ^ topology_to_string c.topology;
          "faults=" ^ faults_to_string c.faults;
          "sched=" ^ Sched.algorithm_name c.sched;
          "empty=" ^ empty_to_string c.empty_policy ]
  | Sstp s ->
      String.concat " "
        [ "sstp";
          "seed=" ^ string_of_int s.s_seed;
          "mu=" ^ f17 s.mu_total_kbps;
          "loss=" ^ loss_to_string s.s_loss;
          "pubs=" ^ string_of_int s.publishes;
          "pubwin=" ^ f17 s.publish_window;
          "removes=" ^ string_of_int s.removes;
          "dur=" ^ f17 s.s_duration;
          "sumper=" ^ f17 s.summary_period;
          "workload=" ^ sstp_workload_to_string s.workload ]
  | Gossip g ->
      String.concat " "
        [ "gossip";
          "seed=" ^ string_of_int g.Experiment.g_seed;
          "topo=" ^ topology_to_string g.g_topology;
          "nodes=" ^ string_of_int g.g_nodes;
          "mode=" ^ Softstate_core.Gossip.mode_name g.g_mode;
          "fanout=" ^ string_of_int g.g_fanout;
          "loss=" ^ f17 g.g_loss;
          "period=" ^ f17 g.g_round_period;
          "rounds=" ^ string_of_int g.g_max_rounds;
          "init=" ^ string_of_int g.g_initial;
          "target=" ^ f17 g.g_target ]

let ( let* ) = Result.bind

let field fields key parse =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing field %s" key)
  | Some v -> parse v

let int_field fields key =
  field fields key (fun v ->
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "bad integer %s=%s" key v))

let float_field fields key =
  field fields key (fun v ->
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad number %s=%s" key v))

(* Fields added after a release default when absent, so older
   reproducer lines keep parsing. *)
let opt_field fields key ~default parse =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some v -> parse v

let sched_of_string s =
  match
    List.find_opt
      (fun a -> String.equal (Sched.algorithm_name a) s)
      [ Sched.Lottery; Sched.Stride; Sched.Wfq; Sched.Drr ]
  with
  | Some a -> Ok a
  | None -> Error ("bad scheduler " ^ s)

let of_string line =
  let toks =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  in
  match toks with
  | [] -> Error "empty scenario"
  | tag :: rest -> (
      let fields =
        List.filter_map
          (fun tok ->
            match String.index_opt tok '=' with
            | None -> None
            | Some i ->
                Some
                  ( String.sub tok 0 i,
                    String.sub tok (i + 1) (String.length tok - i - 1) ))
          rest
      in
      if List.length fields <> List.length rest then
        Error "malformed token (want key=value)"
      else
        match tag with
        | "core" ->
            let* seed = int_field fields "seed" in
            let* duration = float_field fields "dur" in
            let* lambda_kbps = float_field fields "lambda" in
            let* size_bits = int_field fields "size" in
            let* death = field fields "death" death_of_string in
            let* expiry = field fields "expiry" expiry_of_string in
            let* update_fraction = float_field fields "uf" in
            let* arrival =
              opt_field fields "arrival" ~default:Workload.Poisson
                arrival_of_string
            in
            let* loss = field fields "loss" loss_of_string in
            let* protocol = field fields "proto" protocol_of_string in
            let* topology = field fields "topo" topology_of_string in
            let* faults = field fields "faults" faults_of_string in
            let* sched = field fields "sched" sched_of_string in
            let* empty_policy = field fields "empty" empty_of_string in
            Ok
              (Core
                 { Experiment.seed; duration; lambda_kbps; size_bits; death;
                   expiry; update_fraction; arrival; loss; protocol; topology;
                   faults; sched; empty_policy; record_series = true;
                   obs = None })
        | "gossip" ->
            let* g_seed = int_field fields "seed" in
            let* g_topology = field fields "topo" topology_of_string in
            let* g_nodes = int_field fields "nodes" in
            let* g_mode =
              field fields "mode" (function
                | "push" -> Ok Softstate_core.Gossip.Push
                | "push-pull" -> Ok Softstate_core.Gossip.Push_pull
                | m -> Error ("bad gossip mode " ^ m))
            in
            let* g_fanout = int_field fields "fanout" in
            let* g_loss = float_field fields "loss" in
            let* g_round_period = float_field fields "period" in
            let* g_max_rounds = int_field fields "rounds" in
            let* g_initial = int_field fields "init" in
            let* g_target = float_field fields "target" in
            Ok
              (Gossip
                 { Experiment.g_seed; g_topology; g_nodes; g_mode; g_fanout;
                   g_loss; g_round_period; g_max_rounds; g_initial; g_target })
        | "sstp" ->
            let* s_seed = int_field fields "seed" in
            let* mu_total_kbps = float_field fields "mu" in
            let* s_loss = field fields "loss" loss_of_string in
            let* publishes = int_field fields "pubs" in
            let* publish_window = float_field fields "pubwin" in
            let* removes = int_field fields "removes" in
            let* s_duration = float_field fields "dur" in
            let* summary_period = float_field fields "sumper" in
            let* workload =
              opt_field fields "workload" ~default:Script
                sstp_workload_of_string
            in
            Ok
              (Sstp
                 { s_seed; mu_total_kbps; s_loss; publishes; publish_window;
                   removes; s_duration; summary_period; workload })
        | tag -> Error ("unknown scenario kind " ^ tag))

let to_cli = function
  | Sstp _ -> None
  | Gossip g ->
      (* Every gossip knob is a CLI flag; --loss %g is a reproducer
         hint, not the canonical %.17g codec. *)
      let topo =
        match g.Experiment.g_topology with
        | Experiment.Single_hop -> Printf.sprintf " --nodes %d" g.g_nodes
        | t -> Printf.sprintf " --topology %s" (topology_to_string t)
      in
      Some
        (Printf.sprintf
           "softstate_sim_cli --protocol gossip --seed %d --gossip-mode %s \
            --fanout %d --loss %g --round-period %g --rounds %d --initial %d \
            --target %g%s"
           g.Experiment.g_seed
           (Softstate_core.Gossip.mode_name g.g_mode)
           g.g_fanout g.g_loss g.g_round_period g.g_max_rounds g.g_initial
           g.g_target topo)
  | Core c ->
      (* Only claim a CLI reproducer when every knob is expressible as
         a softstate_sim_cli flag. *)
      let ok_empty = c.Experiment.empty_policy = Consistency.Empty_is_consistent in
      let proto_flags =
        match c.protocol with
        | Experiment.Open_loop { mu_data_kbps } ->
            Some (Printf.sprintf "--protocol open-loop --mu-data %g" mu_data_kbps)
        | Experiment.Two_queue { mu_hot_kbps; mu_cold_kbps } ->
            Some
              (Printf.sprintf "--protocol two-queue --mu-hot %g --mu-cold %g"
                 mu_hot_kbps mu_cold_kbps)
        | Experiment.Feedback
            { mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
              fb_lossy = false } ->
            Some
              (Printf.sprintf
                 "--protocol feedback --mu-hot %g --mu-cold %g --mu-fb %g \
                  --nack-bits %d"
                 mu_hot_kbps mu_cold_kbps mu_fb_kbps nack_bits)
        | Experiment.Feedback _ -> None (* fb_lossy not a CLI flag *)
        | Experiment.Multicast
            { receivers; mu_hot_kbps; mu_cold_kbps; mu_fb_kbps; nack_bits;
              suppression = true; nack_slot = _ } ->
            (* nack_slot is fixed at 0.5 in the CLI; only claim a
               reproducer when the scenario matches *)
            Some
              (Printf.sprintf
                 "--protocol multicast --receivers %d --mu-hot %g --mu-cold \
                  %g --mu-fb %g --nack-bits %d"
                 receivers mu_hot_kbps mu_cold_kbps mu_fb_kbps nack_bits)
        | Experiment.Multicast _ -> None
      in
      let ok_slot =
        match c.protocol with
        | Experiment.Multicast { nack_slot; _ } -> Float.equal nack_slot 0.5
        | _ -> true
      in
      let loss_flag =
        match c.loss with
        | Experiment.Bernoulli p -> Printf.sprintf "--loss %g" p
        | Experiment.Gilbert_elliott { p_good_to_bad; p_bad_to_good;
                                       loss_good; loss_bad } ->
            Printf.sprintf "--loss ge:%g:%g:%g:%g" p_good_to_bad p_bad_to_good
              loss_good loss_bad
      in
      if not (ok_empty && ok_slot) then None
      else
        Option.map
          (fun proto ->
            let topo =
              match c.topology with
              | Experiment.Single_hop -> ""
              | t -> Printf.sprintf " --topology %s" (topology_to_string t)
            in
            let faults =
              match c.faults with
              | [] -> ""
              | fs -> Printf.sprintf " --faults '%s'" (faults_to_string fs)
            in
            let uf =
              if Float.equal c.update_fraction 0.0 then ""
              else Printf.sprintf " --update-fraction %g" c.update_fraction
            in
            let expiry =
              match c.expiry with
              | Base.No_expiry -> ""
              | e -> Printf.sprintf " --expiry %s" (expiry_to_string e)
            in
            let arrival =
              match c.arrival with
              | Workload.Poisson -> ""
              | shape ->
                  Printf.sprintf " --arrival %s" (arrival_to_string shape)
            in
            Printf.sprintf
              "softstate_sim_cli %s --seed %d --duration %g --lambda %g \
               --size-bits %d --death %s --sched %s %s%s%s%s%s%s"
              proto c.seed c.duration c.lambda_kbps c.size_bits
              (death_to_string c.death)
              (Sched.algorithm_name c.sched)
              loss_flag topo faults uf expiry arrival)
          proto_flags

(* ------------------------------------------------------------------ *)
(* Feature buckets for coverage accounting.

   Each scenario maps to a small set of static bucket strings; the
   catalogue below enumerates every bucket the generator can emit, so
   a coverage fraction has a well-defined denominator. *)

let topo_feature = function
  | Experiment.Single_hop -> "topo:single-hop"
  | Experiment.Star _ -> "topo:star"
  | Experiment.Chain _ -> "topo:chain"
  | Experiment.Kary_tree _ -> "topo:tree"
  | Experiment.Random_graph _ -> "topo:random"

let loss_feature = function
  | Experiment.Bernoulli _ -> "loss:bernoulli"
  | Experiment.Gilbert_elliott _ -> "loss:ge"

let fault_feature = function
  | Net.Fault.Cable_window _ -> "fault:cable"
  | Net.Fault.Node_window _ -> "fault:node"
  | Net.Fault.Partition_window _ -> "fault:partition"
  | Net.Fault.Flap_process _ -> "fault:flap"
  | Net.Fault.Churn_process _ -> "fault:churn"
  | Net.Fault.Storm _ -> "fault:storm"
  | Net.Fault.Churn_wave _ -> "fault:churnwave"

let features = function
  | Core c ->
      let proto =
        match c.Experiment.protocol with
        | Experiment.Open_loop _ -> [ "proto:open" ]
        | Experiment.Two_queue _ -> [ "proto:twoq" ]
        | Experiment.Feedback { fb_lossy; _ } ->
            [ "proto:fb";
              (if fb_lossy then "fb-lossy:on" else "fb-lossy:off") ]
        | Experiment.Multicast { suppression; _ } ->
            [ "proto:mc";
              (if suppression then "mc-suppression:on"
               else "mc-suppression:off") ]
      in
      let arrival =
        match c.arrival with
        | Workload.Poisson -> [ "arrival:poisson" ]
        | Workload.Flash_crowd { zipf_s; _ } ->
            "arrival:flash"
            :: (if zipf_s > 0.0 then [ "arrival:flash-zipf" ] else [])
      in
      let faults =
        match c.faults with
        | [] -> [ "fault:none" ]
        | fs -> List.map fault_feature fs
      in
      List.sort_uniq String.compare
        (("kind:core" :: proto)
        @ [ topo_feature c.topology;
            loss_feature c.loss;
            (match c.death with
            | Base.Per_service _ -> "death:service"
            | Base.Lifetime_fixed _ -> "death:fixed"
            | Base.Lifetime_exp _ -> "death:exp");
            (match c.expiry with
            | Base.No_expiry -> "expiry:none"
            | Base.Refresh_timeout _ -> "expiry:sweep"
            | Base.Refresh_wheel _ -> "expiry:wheel");
            "sched:" ^ Sched.algorithm_name c.sched;
            "empty:" ^ empty_to_string c.empty_policy;
            (if c.update_fraction > 0.0 then "uf:pos" else "uf:zero") ]
        @ arrival @ faults)
  | Sstp s ->
      List.sort_uniq String.compare
        [ "kind:sstp";
          loss_feature s.s_loss;
          (match s.workload with
          | Script -> "sstp-workload:script"
          | Flash _ -> "sstp-workload:flash");
          (if s.removes > 0 then "sstp-removes:pos" else "sstp-removes:zero") ]
  | Gossip g ->
      List.sort_uniq String.compare
        [ "kind:gossip";
          topo_feature g.Experiment.g_topology;
          "gossip-mode:" ^ Softstate_core.Gossip.mode_name g.g_mode;
          Printf.sprintf "gossip-fanout:%d" g.g_fanout ]

let feature_catalogue =
  List.sort_uniq String.compare
    ([ "kind:core"; "kind:sstp"; "kind:gossip";
       "proto:open"; "proto:twoq"; "proto:fb"; "proto:mc";
       "fb-lossy:on"; "fb-lossy:off";
       "mc-suppression:on"; "mc-suppression:off";
       "topo:single-hop"; "topo:star"; "topo:chain"; "topo:tree"; "topo:random";
       "loss:bernoulli"; "loss:ge";
       "death:service"; "death:fixed"; "death:exp";
       "expiry:none"; "expiry:sweep"; "expiry:wheel";
       "empty:consistent"; "empty:zero"; "empty:last";
       "uf:zero"; "uf:pos";
       "arrival:poisson"; "arrival:flash"; "arrival:flash-zipf";
       "fault:none"; "fault:cable"; "fault:node"; "fault:partition";
       "fault:flap"; "fault:churn"; "fault:storm"; "fault:churnwave";
       "sstp-workload:script"; "sstp-workload:flash";
       "sstp-removes:zero"; "sstp-removes:pos";
       "gossip-mode:push"; "gossip-mode:push-pull";
       "gossip-fanout:1"; "gossip-fanout:2"; "gossip-fanout:3" ]
    @ List.map
        (fun a -> "sched:" ^ Sched.algorithm_name a)
        Sched.all_algorithms)

(* ------------------------------------------------------------------ *)
(* Running *)

type sstp_result = {
  consistency : float;
  avg_consistency : float;
  data_packets : int;
  feedback_packets : int;
  link_utilisation : float;
  sender_root : string;
  receiver_root : string;
  converged_after : float option;
}

type payload =
  | Core_result of Experiment.result
  | Sstp_result of sstp_result
  | Gossip_result of Softstate_core.Gossip.result

type outcome = {
  scenario : t;
  payload : payload;
  horizon : float;
  events : Trace.event list;
  events_dropped : int;
  flight : Trace.event list;
  metrics : (string * Metrics.value) list;
}

let trace_capacity = 1 lsl 19

let run_core scenario config =
  let sink = Trace.memory ~capacity:trace_capacity () in
  let recorder = Trace.recorder () in
  let obs = Obs.create ~trace:(Trace.tee [ sink; recorder ]) () in
  let config = { config with Experiment.obs = Some obs; record_series = true } in
  let result = Experiment.run config in
  { scenario;
    payload = Core_result result;
    horizon = config.Experiment.duration;
    events = Trace.events sink;
    events_dropped = Trace.overwritten sink;
    flight = Trace.recent recorder;
    metrics =
      Metrics.snapshot (Obs.metrics obs) ~now:config.Experiment.duration }

let sstp_path i = Printf.sprintf "grp%d/item%d" (i mod 4) i

let grace_step = 30.0
let grace_max = 300.0

let run_sstp scenario s =
  let sink = Trace.memory ~capacity:trace_capacity () in
  let recorder = Trace.recorder () in
  let obs = Obs.create ~trace:(Trace.tee [ sink; recorder ]) () in
  let engine = Engine.create () in
  let rng = Rng.create s.s_seed in
  let config =
    { (Session.default_config ~mu_total_bps:(s.mu_total_kbps *. 1000.0)) with
      Session.loss = Experiment.make_loss s.s_loss;
      summary_period = s.summary_period }
  in
  (* The flash trace draws from a split generator before the session
     sees [rng], so Script scenarios keep the historical session
     stream byte-for-byte (the split only happens on Flash). *)
  let flash_trace =
    match s.workload with
    | Script -> None
    | Flash f ->
        let trace_rng = Rng.split rng in
        Some
          (Generators.flash_crowd ~rng:trace_rng ~duration:s.s_duration
             ~keys:f.f_keys ~base_rate:f.f_rate ~mult:f.f_mult
             ~period:f.f_period ~dwell:f.f_dwell ~zipf_s:f.f_zipf ())
  in
  let session = Session.create ~obs ~engine ~rng ~config () in
  Session.track_consistency session ~period:1.0;
  (match flash_trace with
  | Some trace ->
      Tevent.replay engine trace
        ~put:(fun ~path ~payload -> Session.publish session ~path ~payload)
        ~remove:(fun ~path -> Session.remove session ~path)
  | None ->
      let publishes = max 1 s.publishes in
      for i = 0 to s.publishes - 1 do
        let time =
          s.publish_window *. float_of_int i /. float_of_int publishes
        in
        Engine.schedule_at engine ~time (fun _ ->
            Session.publish session ~path:(sstp_path i)
              ~payload:(Printf.sprintf "v%d" i))
      done;
      (* withdrawals of already-published paths, spread over the tail
         of the run, strictly after the publish window *)
      let removes = min s.removes s.publishes in
      for j = 0 to removes - 1 do
        let time =
          s.publish_window
          +. (s.s_duration -. s.publish_window)
             *. float_of_int (j + 1)
             /. float_of_int (removes + 1)
        in
        Engine.schedule_at engine ~time (fun _ ->
            Session.remove session ~path:(sstp_path j))
      done);
  Engine.run ~until:s.s_duration engine;
  let measured =
    { consistency = Session.consistency session;
      avg_consistency = Session.average_consistency session;
      data_packets = Session.data_packets session;
      feedback_packets = Session.feedback_packets session;
      link_utilisation = Session.link_utilisation session;
      sender_root = fst (Session.root_digests session);
      receiver_root = snd (Session.root_digests session);
      converged_after = None }
  in
  (* grace run for the convergence oracle: same loss process, just
     more time for summaries and repairs to drain *)
  let rec grace () =
    if Session.converged session then Some (Engine.now engine)
    else if Engine.now engine >= s.s_duration +. grace_max then None
    else begin
      Engine.run ~until:(Engine.now engine +. grace_step) engine;
      grace ()
    end
  in
  let converged_after = grace () in
  let horizon = Engine.now engine in
  { scenario;
    payload = Sstp_result { measured with converged_after };
    horizon;
    events = Trace.events sink;
    events_dropped = Trace.overwritten sink;
    flight = Trace.recent recorder;
    metrics = Metrics.snapshot (Obs.metrics obs) ~now:horizon }

let run_gossip scenario g =
  let sink = Trace.memory ~capacity:trace_capacity () in
  let recorder = Trace.recorder () in
  let obs = Obs.create ~trace:(Trace.tee [ sink; recorder ]) () in
  let result = Experiment.run_gossip ~obs g in
  let horizon =
    match result.Softstate_core.Gossip.series with
    | [||] -> 0.0
    | s -> fst s.(Array.length s - 1)
  in
  { scenario;
    payload = Gossip_result result;
    horizon;
    events = Trace.events sink;
    events_dropped = Trace.overwritten sink;
    flight = Trace.recent recorder;
    metrics = Metrics.snapshot (Obs.metrics obs) ~now:horizon }

let run = function
  | Core config as scenario -> run_core scenario config
  | Sstp s as scenario -> run_sstp scenario s
  | Gossip g as scenario -> run_gossip scenario g
