type flow = int

type entry = {
  mutable weight : float;
  mutable backlogged : bool;
  mutable pass : float;
  mutable served : float;
}

type t = {
  mutable entries : entry array;
  mutable count : int;
  mutable global_pass : float;
}

let create () = { entries = [||]; count = 0; global_pass = 0.0 }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Stride.add_flow: weight must be positive";
  let entry = { weight; backlogged = false; pass = t.global_pass; served = 0.0 } in
  if t.count = Array.length t.entries then begin
    let entries = Array.make (max 4 (2 * t.count)) entry in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1;
  t.count - 1

let entry t f =
  if f < 0 || f >= t.count then invalid_arg "Stride: unknown flow";
  t.entries.(f)

let set_weight t f w =
  if w <= 0.0 then invalid_arg "Stride.set_weight: weight must be positive";
  (entry t f).weight <- w

let set_backlogged t f b =
  let e = entry t f in
  if b && not e.backlogged then
    (* A flow waking from idleness joins at the current global pass so
       idleness does not accumulate credit. *)
    e.pass <- Float.max e.pass t.global_pass;
  e.backlogged <- b

let select t =
  let best = ref None in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.backlogged then
      match !best with
      | None -> best := Some i
      | Some j -> if e.pass < t.entries.(j).pass then best := Some i
  done;
  !best

let charge t f size =
  if size < 0.0 then invalid_arg "Stride.charge: negative size";
  let e = entry t f in
  e.pass <- e.pass +. (size /. e.weight);
  e.served <- e.served +. size;
  t.global_pass <- Float.max t.global_pass e.pass

let served t f = (entry t f).served
