type flow = int

type entry = {
  weight : float;
  mutable backlogged : bool;
  mutable start_tag : float;
}

type t = {
  mutable entries : entry array;
  mutable count : int;
  mutable vtime : float;
}

let create () = { entries = [||]; count = 0; vtime = 0.0 }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Wfq.add_flow: weight must be positive";
  let entry = { weight; backlogged = false; start_tag = t.vtime } in
  if t.count = Array.length t.entries then begin
    let entries = Array.make (max 4 (2 * t.count)) entry in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1;
  t.count - 1

let entry t f =
  if f < 0 || f >= t.count then invalid_arg "Wfq: unknown flow";
  t.entries.(f)

let set_backlogged t f b =
  let e = entry t f in
  if b && not e.backlogged then e.start_tag <- Float.max e.start_tag t.vtime;
  e.backlogged <- b

let select t =
  let best = ref None in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.backlogged then
      match !best with
      | None -> best := Some i
      | Some j -> if e.start_tag < t.entries.(j).start_tag then best := Some i
  done;
  (match !best with
  | Some i -> t.vtime <- Float.max t.vtime t.entries.(i).start_tag
  | None -> ());
  !best

let charge t f size =
  if size < 0.0 then invalid_arg "Wfq.charge: negative size";
  let e = entry t f in
  e.start_tag <- e.start_tag +. (size /. e.weight)
