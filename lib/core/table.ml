module Rng = Softstate_util.Rng

(* Alongside the record map, a dense array of live keys with a
   key->slot index. Sampling indexes the array directly, and removal
   swaps the last key into the vacated slot, so the array order — and
   therefore every random update target drawn from it — is a function
   of the insert/remove history alone, never of hash-bucket layout.
   (The determinism lint's D003 exists for exactly this: the previous
   implementation walked Hashtbl.iter to the target index, so the
   chosen key depended on hash order.) *)
type t = {
  records : (Record.key, Record.t) Hashtbl.t;
  slots : (Record.key, int) Hashtbl.t;
  mutable keys : Record.key array;
  mutable live : int;
}

let create () =
  { records = Hashtbl.create 256;
    slots = Hashtbl.create 256;
    keys = Array.make 256 0;
    live = 0 }

let live_count t = t.live
let find t key = Hashtbl.find_opt t.records key
let mem t key = Hashtbl.mem t.records key
let slot_of_key t key = Hashtbl.find_opt t.slots key

let insert t r =
  let key = r.Record.key in
  if Hashtbl.mem t.records key then
    invalid_arg "Table.insert: key already live";
  Hashtbl.add t.records key r;
  if t.live = Array.length t.keys then begin
    let grown = Array.make (2 * t.live) 0 in
    Array.blit t.keys 0 grown 0 t.live;
    t.keys <- grown
  end;
  t.keys.(t.live) <- key;
  Hashtbl.replace t.slots key t.live;
  t.live <- t.live + 1

let remove t key =
  match Hashtbl.find_opt t.records key with
  | None -> None
  | Some r ->
      Hashtbl.remove t.records key;
      let slot =
        match Hashtbl.find_opt t.slots key with
        | Some s -> s
        | None -> assert false
      in
      Hashtbl.remove t.slots key;
      let last = t.keys.(t.live - 1) in
      if last <> key then begin
        t.keys.(slot) <- last;
        Hashtbl.replace t.slots last slot
      end;
      t.live <- t.live - 1;
      Some r

let sorted_keys t =
  let live = Array.sub t.keys 0 t.live in
  Array.sort Int.compare live;
  live

let record t key =
  match Hashtbl.find_opt t.records key with
  | Some r -> r
  | None -> assert false

let fold t ~init ~f =
  Array.fold_left (fun acc key -> f acc (record t key)) init (sorted_keys t)

let random_key t rng =
  if t.live = 0 then None else Some t.keys.(Rng.int rng t.live)

let key_at t slot =
  if slot < 0 || slot >= t.live then None else Some t.keys.(slot)
