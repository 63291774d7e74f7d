module Rng = Softstate_util.Rng

type flow = int

type entry = { weight : float; mutable backlogged : bool }

type t = {
  rng : Rng.t;
  mutable entries : entry array;
  mutable count : int;
}

let create ~rng = { rng; entries = [||]; count = 0 }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Lottery.add_flow: weight must be positive";
  let entry = { weight; backlogged = false } in
  if t.count = Array.length t.entries then begin
    let entries = Array.make (max 4 (2 * t.count)) entry in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1;
  t.count - 1

let entry t f =
  if f < 0 || f >= t.count then invalid_arg "Lottery: unknown flow";
  t.entries.(f)

let set_backlogged t f b = (entry t f).backlogged <- b

let select t =
  let total = ref 0.0 in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.backlogged then total := !total +. e.weight
  done;
  if !total <= 0.0 then None
  else begin
    let ticket = Rng.float t.rng *. !total in
    let rec pick i acc =
      if i >= t.count then None
      else
        let e = t.entries.(i) in
        if not e.backlogged then pick (i + 1) acc
        else
          let acc = acc +. e.weight in
          if ticket < acc then Some i else pick (i + 1) acc
    in
    (* Floating error can push the ticket past the last flow; fall
       back to the last backlogged flow in that case. *)
    match pick 0 0.0 with
    | Some f -> Some f
    | None ->
        let last = ref None in
        for i = 0 to t.count - 1 do
          if t.entries.(i).backlogged then last := Some i
        done;
        !last
  end
