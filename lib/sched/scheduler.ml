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
  set_backlogged : flow -> bool -> unit;
  select : unit -> flow option;
  charge : flow -> int -> unit; (* size in bits: an int crosses the
                                   closure unboxed *)
}

type t = ops

let create ?rng algorithm =
  match algorithm with
  | Lottery -> (
      match rng with
      | None -> invalid_arg "Scheduler.create: Lottery requires ~rng"
      | Some rng ->
          let s = Lottery.create ~rng in
          { add_flow = (fun ~weight -> Lottery.add_flow s ~weight);
            set_backlogged = (fun f b -> Lottery.set_backlogged s f b);
            select = (fun () -> Lottery.select s);
            (* lottery draws are memoryless: service needs no charge *)
            charge = (fun _ _ -> ()) })
  | Stride ->
      let s = Stride.create () in
      { add_flow = (fun ~weight -> Stride.add_flow s ~weight);
        set_backlogged = (fun f b -> Stride.set_backlogged s f b);
        select = (fun () -> Stride.select s);
        charge = (fun f size_bits -> Stride.charge_bits s f size_bits) }
  | Wfq ->
      let s = Wfq.create () in
      { add_flow = (fun ~weight -> Wfq.add_flow s ~weight);
        set_backlogged = (fun f b -> Wfq.set_backlogged s f b);
        select = (fun () -> Wfq.select s);
        charge =
          (fun f size_bits -> Wfq.charge s f (float_of_int size_bits)) }
  | Drr ->
      let s = Drr.create () in
      { add_flow = (fun ~weight -> Drr.add_flow s ~weight);
        set_backlogged = (fun f b -> Drr.set_backlogged s f b);
        select = (fun () -> Drr.select s);
        charge =
          (fun f size_bits -> Drr.charge s f (float_of_int size_bits)) }

let add_flow t ~weight = t.add_flow ~weight
let set_backlogged t f b = t.set_backlogged f b
let select t = t.select ()
let charge t f size_bits = t.charge f size_bits
