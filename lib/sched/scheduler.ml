type flow = int

type algorithm = Lottery | Stride | Wfq | Drr

let algorithm_name = function
  | Lottery -> "lottery"
  | Stride -> "stride"
  | Wfq -> "wfq"
  | Drr -> "drr"

let all_algorithms = [ Lottery; Stride; Wfq; Drr ]

type ops = {
  add_flow : weight:float -> flow;
  set_weight : flow -> float -> unit;
  set_backlogged : flow -> bool -> unit;
  select : unit -> flow option;
  charge : flow -> int -> unit; (* size in bits: an int crosses the
                                   closure unboxed *)
  served : flow -> float;
  name : string;
}

type t = ops

let of_lottery s =
  { add_flow = (fun ~weight -> Lottery.add_flow s ~weight);
    set_weight = (fun f w -> Lottery.set_weight s f w);
    set_backlogged = (fun f b -> Lottery.set_backlogged s f b);
    select = (fun () -> Lottery.select s);
    charge =
      (fun f size_bits -> Lottery.charge s f (float_of_int size_bits));
    served = (fun f -> Lottery.served s f);
    name = "lottery" }

let create ?rng algorithm =
  match algorithm with
  | Lottery -> (
      match rng with
      | None -> invalid_arg "Scheduler.create: Lottery requires ~rng"
      | Some rng -> of_lottery (Lottery.create ~rng))
  | Stride ->
      let s = Stride.create () in
      { add_flow = (fun ~weight -> Stride.add_flow s ~weight);
        set_weight = (fun f w -> Stride.set_weight s f w);
        set_backlogged = (fun f b -> Stride.set_backlogged s f b);
        select = (fun () -> Stride.select s);
        charge = (fun f size_bits -> Stride.charge_bits s f size_bits);
        served = (fun f -> Stride.served s f);
        name = "stride" }
  | Wfq ->
      let s = Wfq.create () in
      { add_flow = (fun ~weight -> Wfq.add_flow s ~weight);
        set_weight = (fun f w -> Wfq.set_weight s f w);
        set_backlogged = (fun f b -> Wfq.set_backlogged s f b);
        select = (fun () -> Wfq.select s);
        charge =
          (fun f size_bits -> Wfq.charge s f (float_of_int size_bits));
        served = (fun f -> Wfq.served s f);
        name = "wfq" }
  | Drr ->
      let s = Drr.create () in
      { add_flow = (fun ~weight -> Drr.add_flow s ~weight);
        set_weight = (fun f w -> Drr.set_weight s f w);
        set_backlogged = (fun f b -> Drr.set_backlogged s f b);
        select = (fun () -> Drr.select s);
        charge =
          (fun f size_bits -> Drr.charge s f (float_of_int size_bits));
        served = (fun f -> Drr.served s f);
        name = "drr" }

let add_flow t ~weight = t.add_flow ~weight
let set_weight t f w = t.set_weight f w
let set_backlogged t f b = t.set_backlogged f b
let select t = t.select ()
let charge t f size_bits = t.charge f size_bits
