type flow = int

type entry = {
  weight : float;
  mutable backlogged : bool;
  mutable deficit : float;
}

type t = {
  mutable entries : entry array;
  mutable count : int;
  mutable cursor : int;
}

let create () = { entries = [||]; count = 0; cursor = 0 }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Drr.add_flow: weight must be positive";
  let entry = { weight; backlogged = false; deficit = 0.0 } in
  if t.count = Array.length t.entries then begin
    let entries = Array.make (max 4 (2 * t.count)) entry in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1;
  t.count - 1

let entry t f =
  if f < 0 || f >= t.count then invalid_arg "Drr: unknown flow";
  t.entries.(f)

let set_backlogged t f b =
  let e = entry t f in
  if b && not e.backlogged then
    (* Idle flows must not hoard credit across idle periods. *)
    e.deficit <- Float.min e.deficit e.weight;
  e.backlogged <- b

let any_backlogged t =
  let rec scan i = i < t.count && (t.entries.(i).backlogged || scan (i + 1)) in
  scan 0

let scan_from t start =
  let rec walk i =
    if i >= t.count then None
    else
      let idx = (start + i) mod t.count in
      let e = t.entries.(idx) in
      if e.backlogged && e.deficit > 0.0 then Some idx else walk (i + 1)
  in
  walk 0

let replenish_until_eligible t =
  (* Exactly enough whole rounds for the least-indebted backlogged
     flow to climb above zero; every backlogged flow gains its
     weight per round, as in per-visit DRR. *)
  let rounds = ref infinity in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.backlogged then begin
      let need = Float.max 1.0 (ceil ((-.e.deficit /. e.weight) +. 1e-9)) in
      if need < !rounds then rounds := need
    end
  done;
  assert (Float.is_finite !rounds);
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if e.backlogged then
      e.deficit <- e.deficit +. (!rounds *. e.weight)
  done

let select t =
  if not (any_backlogged t) then None
  else begin
    let found =
      match scan_from t t.cursor with
      | Some idx -> Some idx
      | None ->
          replenish_until_eligible t;
          scan_from t t.cursor
    in
    match found with
    | Some idx ->
        t.cursor <- idx;
        Some idx
    | None -> assert false
  end

let charge t f size =
  if size < 0.0 then invalid_arg "Drr.charge: negative size";
  let e = entry t f in
  e.deficit <- e.deficit -. size;
  (* Move on when this flow exhausted its visit. *)
  if e.deficit <= 0.0 && t.count > 0 then
    t.cursor <- (t.cursor + 1) mod t.count
