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
   sweeps every transmission, which is what lets 10^6-node
   populations run within memory. A contact allocates nothing and
   calls no closure:

   - [Mesh] neighbours come straight from the graph's CSR arrays
     ({!Flat.adjacency}): [off.(u)], the degree
     [off.(u+1) - off.(u)], one [Rng.int], then [node.(off.(u) + k)].
     [Uniform n] computes the k-th neighbour arithmetically.
   - Fault tests cost nothing on an unfaulted mesh: each round reads
     {!Flat.all_up} once as it opens, and only when something is down
     does a contact test its cable and target node, and a node its
     own bit. Rounds are single calendar events, so a fault another
     event flips between rounds is seen by the next round.
   - The delivery digest is an 8-byte buffer folded through inlined
     unboxed 64-bit steps, so an infection boxes no [int64].
   - Each phase keeps its counters in locals and adds them to the
     run's totals once.

   Fixed-outcome contacts take no neighbour read. Most contacts of a
   run on a mesh cannot change anything: a pusher whose neighbours
   all know the rumour makes only redundant contacts, and a puller
   with no informed neighbour only misses, whichever neighbour each
   draw picks. In an unfaulted round of a lossless [Mesh] run such a
   node's [fanout] contacts are counted (as redundant or as misses)
   and its [fanout] draws skipped with one {!Rng.advance}; every
   other contact, every faulted round (whether a contact is
   blackholed depends on the drawn edge), every lossy run (lost
   against redundant depends on the loss draw) and [Uniform] mixing
   take the path above, in the same order. Two things make the skip
   exact:

   - [uninformed.(u)] counts u's incident edges whose far end does
     not know the rumour yet; each infection decrements it over the
     new node's CSR slice, O(E) per run.
   - A skipped draw stands for one [Rng.int rng d] call, which is one
     raw draw unless that call rejects and redraws. {!Rng.clean_draws}
     with the mesh's maximum degree certifies, once per run, how many
     upcoming raw draws no such call can reject; the kernel counts
     the draws it takes (one per contact from a node with
     neighbours, in a lossless run) and skips only while inside that
     horizon. Past it every draw goes through [Rng.int], so even a
     rejecting draw is consumed exactly as the full loop would.

   The per-node state is two int arrays, and a third for the
   shortcut:

   - [order]: nodes in infection order (a preallocated pool — slot
     [i] is the i-th infection, written once);
   - [rank]: node -> its index in [order], [max_int] if susceptible;
   - [uninformed]: as above, in lossless [Mesh] runs only.

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
   pins and the reference-loop test in the core suite hang off it. *)

module Rng = Softstate_util.Rng
module Flat = Softstate_net.Flat_topology
module Engine = Softstate_sim.Engine
module Obs = Softstate_obs.Obs
module Metrics = Softstate_obs.Metrics
module Trace = Softstate_obs.Trace

type mode = Push | Push_pull

let mode_name = function Push -> "push" | Push_pull -> "push-pull"

type peers = Uniform of int | Mesh of Flat.t

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
   infection sequence. The state lives in 8 bytes read and written
   through the unboxed 64-bit primitives, and the steps are inlined,
   so a fold boxes no [int64] (the same pattern as {!Rng}). *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] digest_step h x =
  set64u h 0
    (mix64
       (Int64.logxor (Int64.mul (get64u h 0) 6364136223846793005L)
          (Int64.of_int x)))

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

(* what became of one contact *)
type outcome = Delivered | Redundant | Missed | Lost | Blackholed

let run ?obs ?engine config peers =
  validate config;
  (* [Uniform] is complete-graph mixing without materialising O(N^2)
     edges: u's k-th neighbour is k, skipping u itself. *)
  let n, uniform, { Flat.off; node; cable } =
    match peers with
    | Uniform n ->
        if n < 1 then invalid_arg "Gossip: uniform population must be >= 1";
        (n, true, { Flat.off = [||]; node = [||]; cable = [||] })
    | Mesh f -> (Flat.node_count f, false, Flat.adjacency f)
  in
  let all_up () =
    match peers with Uniform _ -> true | Mesh f -> Flat.all_up f
  in
  let node_up u =
    match peers with Uniform _ -> true | Mesh f -> Flat.is_node_up f u
  in
  let edge_up e =
    match peers with
    | Uniform _ -> true
    | Mesh f -> Flat.is_cable_up f cable.(e) && Flat.is_node_up f node.(e)
  in
  let own_engine, engine =
    match engine with
    | Some e -> (false, e)
    | None -> (true, Engine.create ())
  in
  let rng = Rng.create config.seed in
  let order = Array.make n 0 in
  let rank = Array.make n max_int in
  let count = ref 0 in
  let digest = Bytes.create 8 in
  set64u digest 0 (Int64.of_int config.seed);
  let loss = config.loss in
  let lossy = loss > 0.0 in
  (* the fixed-outcome shortcut (see the header) runs on lossless
     meshes; [uninformed] starts at each node's degree *)
  let skippable = (not uniform) && not lossy in
  let uninformed =
    if skippable then Array.init n (fun u -> off.(u + 1) - off.(u)) else [||]
  in
  let horizon =
    if skippable then
      Rng.clean_draws rng ~bound:(Array.fold_left Int.max 1 uninformed)
    else 0
  in
  (* raw draws taken, exact while within [horizon] *)
  let drawn = ref 0 in
  let infect u =
    order.(!count) <- u;
    rank.(u) <- !count;
    incr count;
    digest_step digest u;
    if skippable then
      for e = off.(u) to off.(u + 1) - 1 do
        let w = node.(e) in
        uninformed.(w) <- uninformed.(w) - 1
      done
  in
  let initial = min config.initial n in
  for u = 0 to initial - 1 do
    infect u
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
  (* one contact: u, whose incident edges are [o .. o + d - 1], offers
     the rumour along one of them; [faulted] is false only while no
     node or cable is down *)
  let contact u o d push active faulted =
    if d <= 0 then Missed
    else begin
      let k = Rng.int rng d in
      if faulted && not (edge_up (o + k)) then Blackholed
      else if lossy && Rng.bernoulli rng loss then Lost
      else begin
        let w =
          if not uniform then node.(o + k) else if k >= u then k + 1 else k
        in
        if push then
          (* u is infected; w either learns or already knew *)
          if rank.(w) < max_int then Redundant
          else begin
            infect w;
            Delivered
          end
        else if
          (* u was susceptible at round start; w can answer only if
             it was infected at round start *)
          rank.(w) < active
        then
          if rank.(u) < max_int then Redundant
          else begin
            infect u;
            Delivered
          end
        else Missed
      end
    end
  in
  (* one phase: push over the nodes infected at round start, in
     infection order, or pull over the nodes susceptible at round
     start, ascending. A pusher with no uninformed neighbour and a
     puller with no informed one are skipped while [horizon] allows. *)
  let phase push active faulted =
    let fanout = config.fanout in
    let skipping = skippable && not faulted in
    let sent = ref 0 and delivered = ref 0 and redundant' = ref 0 in
    let missed = ref 0 and lost' = ref 0 and blackholed' = ref 0 in
    let drawn' = ref !drawn in
    for i = 0 to (if push then active else n) - 1 do
      let u = if push then order.(i) else i in
      if (push || rank.(u) >= active) && ((not faulted) || node_up u) then begin
        let o = if uniform then 0 else off.(u) in
        let d = if uniform then n - 1 else off.(u + 1) - o in
        sent := !sent + fanout;
        if
          skipping && d > 0
          && uninformed.(u) = (if push then 0 else d)
          && !drawn' + fanout <= horizon
        then begin
          Rng.advance rng fanout;
          if push then redundant' := !redundant' + fanout
          else missed := !missed + fanout
        end
        else
          for _ = 1 to fanout do
            match contact u o d push active faulted with
            | Delivered -> incr delivered
            | Redundant -> incr redundant'
            | Missed -> incr missed
            | Lost -> incr lost'
            | Blackholed -> incr blackholed'
          done;
        if d > 0 then drawn' := !drawn' + fanout
      end
    done;
    drawn := !drawn';
    transmissions := !transmissions + !sent;
    deliveries := !deliveries + !delivered;
    redundant := !redundant + !redundant';
    misses := !misses + !missed;
    lost := !lost + !lost';
    blackholed := !blackholed + !blackholed'
  in
  let round () =
    let active = !count in
    (* faults flip only in other calendar events, so one read per
       round sees every fault a caller scheduled between rounds *)
    let faulted = not (all_up ()) in
    phase true active faulted;
    (match config.mode with
    | Push -> ()
    | Push_pull -> phase false active faulted);
    incr rounds;
    digest_step digest (-(!rounds));
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
    digest = Printf.sprintf "%016Lx" (get64u digest 0);
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
