(* Round-synchronous epidemic dissemination over a flat substrate.

   The paper's announce/listen machinery pushes one sender's table to
   listeners; gossip is the many-to-many complement (Bakhshi et al.,
   arXiv:1105.5986): each round, every infected node pushes the rumour
   to [fanout] uniformly-drawn peers (push), and optionally every
   susceptible node pulls from [fanout] peers (push-pull). The
   infected fraction c(t) then follows a mean-field recurrence whose
   fluid limit {!fluid} integrates — the analytic cross-check for the
   discrete-event trajectory, as lib/queueing is for Figures 3/4.

   Engine integration is round-batched: ONE calendar event per round
   sweeps every transmission with plain array reads/writes — no
   closure, packet record or queue cell per contact — which is what
   lets 10^6-node populations run within memory. The per-node state
   is two int arrays:

   - [order]: nodes in infection order (a preallocated pool — slot
     [i] is the i-th infection, written once);
   - [rank]: node -> its index in [order], [max_int] if susceptible.

   "Infected at the start of round r" is [rank.(v) < active] where
   [active] is the infection count when the round opened, so
   round-synchronous semantics need no per-round copying.

   Determinism: one SplitMix64 stream drawn in a fixed order (push
   phase over infected nodes in infection order, then pull phase over
   susceptible nodes ascending), neighbours observed through the
   substrate's sorted-adjacency contract. The [digest] field folds
   the full infection sequence (node ids in infection order plus
   round boundaries) through a 64-bit mix, so two runs agree on the
   digest iff they agree on the entire delivery trace — the golden
   pins and the Mesh-vs-View equivalence test both hang off it. *)

module Rng = Softstate_util.Rng
module Flat = Softstate_net.Flat_topology
module Engine = Softstate_sim.Engine
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type mode = Push | Push_pull

let mode_name = function Push -> "push" | Push_pull -> "push-pull"

type peers =
  | Uniform of int
  | Mesh of Flat.t
  | View of {
      view_nodes : int;
      view_degree : int -> int;
      view_neighbor : int -> int -> int;
    }

type config = {
  seed : int;
  mode : mode;
  fanout : int;
  loss : float;
  round_period : float;
  max_rounds : int;
  initial : int;
  target_fraction : float;
}

let default =
  { seed = 1;
    mode = Push;
    fanout = 1;
    loss = 0.0;
    round_period = 1.0;
    max_rounds = 64;
    initial = 1;
    target_fraction = 1.0 }

type result = {
  nodes : int;
  rounds : int;
  infected : int;
  transmissions : int;
  deliveries : int;
  redundant : int;
  misses : int;
  lost : int;
  blackholed : int;
  digest : string;
  series : (float * float) array;
}

(* ------------------------------------------------------------------ *)
(* Delivery-trace digest: SplitMix64 finaliser folded over the
   infection sequence. *)

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let digest_step h x =
  mix64 (Int64.logxor (Int64.mul h 6364136223846793005L) (Int64.of_int x))

(* ------------------------------------------------------------------ *)

(* Internal adjacency view: every peer source reduces to this. *)
type view = {
  vn : int;
  vdeg : int -> int;
  vnbr : int -> int -> int;
  vup : int -> bool;           (* node may gossip / be infected *)
  vok : int -> int -> bool;    (* src -> k -> transmission not blackholed *)
}

let always_up _ = true
let always_ok _ _ = true

let view_of = function
  | Uniform n ->
      if n < 1 then invalid_arg "Gossip: uniform population must be >= 1";
      (* complete-graph mixing without materialising O(N^2) edges *)
      { vn = n;
        vdeg = (fun _ -> n - 1);
        vnbr = (fun u k -> if k >= u then k + 1 else k);
        vup = always_up;
        vok = always_ok }
  | Mesh f ->
      { vn = Flat.node_count f;
        vdeg = Flat.degree f;
        vnbr = Flat.neighbor f;
        vup = Flat.is_node_up f;
        vok =
          (fun u k ->
            Flat.is_cable_up f (Flat.neighbor_cable f u k)
            && Flat.is_node_up f (Flat.neighbor f u k)) }
  | View { view_nodes; view_degree; view_neighbor } ->
      { vn = view_nodes;
        vdeg = view_degree;
        vnbr = view_neighbor;
        vup = always_up;
        vok = always_ok }

let validate config =
  if config.fanout < 1 then invalid_arg "Gossip: fanout must be >= 1";
  if config.initial < 1 then invalid_arg "Gossip: initial must be >= 1";
  if config.max_rounds < 0 then invalid_arg "Gossip: max_rounds must be >= 0";
  if not (config.round_period > 0.0) then
    invalid_arg "Gossip: round_period must be > 0";
  if Float.is_nan config.loss || config.loss < 0.0 || config.loss > 1.0 then
    invalid_arg "Gossip: loss outside [0, 1]";
  if
    Float.is_nan config.target_fraction
    || config.target_fraction <= 0.0
    || config.target_fraction > 1.0
  then invalid_arg "Gossip: target_fraction outside (0, 1]"

let run ?obs ?engine config peers =
  validate config;
  let v = view_of peers in
  let n = v.vn in
  let own_engine, engine =
    match engine with
    | Some e -> (false, e)
    | None -> (true, Engine.create ())
  in
  let rng = Rng.create config.seed in
  let order = Array.make n 0 in
  let rank = Array.make n max_int in
  let count = ref 0 in
  let infect u =
    order.(!count) <- u;
    rank.(u) <- !count;
    incr count
  in
  let digest = ref (Int64.of_int config.seed) in
  let initial = min config.initial n in
  for u = 0 to initial - 1 do
    infect u;
    digest := digest_step !digest u
  done;
  let target =
    max initial
      (min n (int_of_float (ceil (config.target_fraction *. float_of_int n))))
  in
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let redundant = ref 0 in
  let misses = ref 0 in
  let lost = ref 0 in
  let blackholed = ref 0 in
  let rounds = ref 0 in
  let series = Array.make (config.max_rounds + 1) (0.0, 0.0) in
  let now0 = Engine.now engine in
  let frac () = float_of_int !count /. float_of_int n in
  series.(0) <- (now0, frac ());
  (* observability: probes read the live counters; one Custom "round"
     trace event per round (never Packet_* kinds — those belong to
     the link-level conservation identity) *)
  let trace = Obs.trace_of obs in
  (match obs with
  | None -> ()
  | Some obs ->
      let m = Obs.metrics obs in
      Metrics.probe m "gossip.infected" (fun ~now:_ -> float_of_int !count);
      Metrics.probe m "gossip.infected_fraction" (fun ~now:_ -> frac ());
      Metrics.probe m "gossip.rounds" (fun ~now:_ -> float_of_int !rounds);
      Metrics.probe m "gossip.transmissions" (fun ~now:_ ->
          float_of_int !transmissions);
      Metrics.probe m "gossip.deliveries" (fun ~now:_ ->
          float_of_int !deliveries);
      Metrics.probe m "gossip.redundant" (fun ~now:_ ->
          float_of_int !redundant);
      Metrics.probe m "gossip.misses" (fun ~now:_ -> float_of_int !misses);
      Metrics.probe m "gossip.lost" (fun ~now:_ -> float_of_int !lost);
      Metrics.probe m "gossip.blackholed" (fun ~now:_ ->
          float_of_int !blackholed));
  let loss = config.loss in
  let lossy = loss > 0.0 in
  (* one contact: u offers the rumour along its k-th incident edge *)
  let contact u infected_cutoff =
    incr transmissions;
    let d = v.vdeg u in
    if d <= 0 then incr misses
    else begin
      let k = Rng.int rng d in
      if not (v.vok u k) then incr blackholed
      else if lossy && Rng.bernoulli rng loss then incr lost
      else begin
        let w = v.vnbr u k in
        if infected_cutoff < 0 then
          (* push: u is infected; w either learns or already knew *)
          if rank.(w) < max_int then incr redundant
          else begin
            infect w;
            incr deliveries;
            digest := digest_step !digest w
          end
        else if
          (* pull: u was susceptible at round start; w can answer only
             if it was infected at round start *)
          rank.(w) < infected_cutoff
        then
          if rank.(u) < max_int then incr redundant
          else begin
            infect u;
            incr deliveries;
            digest := digest_step !digest u
          end
        else incr misses
      end
    end
  in
  let round () =
    let active = !count in
    (* push phase: infected nodes in infection order *)
    for idx = 0 to active - 1 do
      let u = order.(idx) in
      if v.vup u then
        for _ = 1 to config.fanout do
          contact u (-1)
        done
    done;
    (match config.mode with
    | Push -> ()
    | Push_pull ->
        (* pull phase: nodes susceptible at round start, ascending *)
        for u = 0 to n - 1 do
          if rank.(u) >= active && v.vup u then
            for _ = 1 to config.fanout do
              contact u active
            done
        done);
    incr rounds;
    digest := digest_step !digest (-(!rounds));
    series.(!rounds) <- (Engine.now engine, frac ());
    if Trace.enabled trace then
      Trace.emit trace
        (Trace.event ~time:(Engine.now engine) ~src:"gossip" ~value:(frac ())
           ~key:!rounds (Trace.Custom "round"))
  in
  let rec schedule_round () =
    if !rounds < config.max_rounds && !count < target then
      Engine.schedule engine ~after:config.round_period (fun _ ->
          round ();
          schedule_round ())
  in
  schedule_round ();
  if own_engine then Engine.run engine
  else begin
    (* shared engine: drive it ourselves only up to the last round we
       could possibly schedule, leaving the caller's later events *)
    Engine.run
      ~until:(now0 +. (config.round_period *. float_of_int config.max_rounds))
      engine
  end;
  { nodes = n;
    rounds = !rounds;
    infected = !count;
    transmissions = !transmissions;
    deliveries = !deliveries;
    redundant = !redundant;
    misses = !misses;
    lost = !lost;
    blackholed = !blackholed;
    digest = Printf.sprintf "%016Lx" !digest;
    series = Array.sub series 0 (!rounds + 1) }

(* ------------------------------------------------------------------ *)
(* Fluid mode: the mean-field recurrence for the infected fraction.

   Push: an infected node makes [fanout] uniform contacts, each
   surviving loss with probability (1 - loss); a susceptible node
   receives Poisson(beta x) infecting contacts with
   beta = fanout (1 - loss), so it stays susceptible with exp(-beta x).

   Push-pull adds the susceptible node's own pulls: each of its
   [fanout] contacts fails to infect it with 1 - (1 - loss) x,
   multiplying the survival by (1 - (1 - loss) x)^fanout.

   The discrete-event trajectory converges to this map as N grows
   (fluctuations are O(1/sqrt N) per round); the convergence test in
   test_core pins the tolerance at N = 10^4. *)

let fluid_step config x =
  let f = float_of_int config.fanout in
  let beta = f *. (1.0 -. config.loss) in
  let survive_push = exp (-.beta *. x) in
  let survive =
    match config.mode with
    | Push -> survive_push
    | Push_pull ->
        survive_push *. ((1.0 -. ((1.0 -. config.loss) *. x)) ** f)
  in
  x +. ((1.0 -. x) *. (1.0 -. survive))

let fluid ?rounds config ~nodes =
  validate config;
  if nodes < 1 then invalid_arg "Gossip.fluid: nodes must be >= 1";
  let rounds =
    match rounds with Some r -> max 0 r | None -> config.max_rounds
  in
  let x0 = float_of_int (min config.initial nodes) /. float_of_int nodes in
  let out = Array.make (rounds + 1) (0.0, x0) in
  let x = ref x0 in
  for r = 1 to rounds do
    x := fluid_step config !x;
    out.(r) <- (config.round_period *. float_of_int r, !x)
  done;
  out
