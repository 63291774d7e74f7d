module Rng = Softstate_util.Rng

(* A Fibonacci multiply, high half folded into the low bits the bucket
   index uses. Nothing iterates the index (D003). *)
module Index = Hashtbl.Make (struct
  type t = Record.key

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

(* Live records sit densely in [records.(0 .. live-1)], each knowing
   its slot. Sampling indexes the array, and removal swaps the last
   record into the vacated slot, so the slot order — and every random
   update target drawn from it — depends on the insert/remove history
   alone, never on hash layout. Free slots hold [vacant]. *)
type t = {
  index : Record.t Index.t;
  mutable records : Record.t array;
  mutable live : int;
  vacant : Record.t;
}

let create () =
  let vacant = Record.make ~key:(-1) ~now:0.0 ~size_bits:1 in
  { index = Index.create 256; records = Array.make 256 vacant; live = 0;
    vacant }

let live_count t = t.live
let find t key = Index.find_opt t.index key
let mem t key = Index.mem t.index key

let slot_of_key t key =
  match Index.find t.index key with
  | r -> Some r.Record.slot
  | exception Not_found -> None

let record_at t slot =
  if slot < 0 || slot >= t.live then invalid_arg "Table.record_at: no such slot";
  t.records.(slot)

let insert t r =
  let key = r.Record.key in
  if Index.mem t.index key then invalid_arg "Table.insert: key already live";
  if t.live = Array.length t.records then begin
    let grown = Array.make (2 * t.live) t.vacant in
    Array.blit t.records 0 grown 0 t.live;
    t.records <- grown
  end;
  Index.add t.index key r;
  t.records.(t.live) <- r;
  r.Record.slot <- t.live;
  t.live <- t.live + 1

let remove t key =
  match Index.find t.index key with
  | exception Not_found -> None
  | r ->
      Index.remove t.index key;
      let slot = r.Record.slot and last = t.live - 1 in
      if slot <> last then begin
        let moved = t.records.(last) in
        t.records.(slot) <- moved;
        moved.Record.slot <- slot
      end;
      t.records.(last) <- t.vacant;
      r.Record.slot <- -1;
      t.live <- last;
      Some r

let fold t ~init ~f =
  let live = Array.sub t.records 0 t.live in
  Array.sort (fun a b -> Int.compare a.Record.key b.Record.key) live;
  Array.fold_left f init live

let random_key t rng =
  if t.live = 0 then None else Some t.records.(Rng.int rng t.live).Record.key
