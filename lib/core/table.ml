module Rng = Softstate_util.Rng

(* Live records sit densely in [records.(0 .. live-1)], each knowing
   its slot. Sampling indexes the array, and removal swaps the last
   record into the vacated slot, so the slot order — and every random
   update target drawn from it — depends on the insert/remove history
   alone, never on the index's layout. Free slots hold [vacant].

   The index is an open-addressing table with linear probing: bucket
   [i] holds key [keys.(i)] and its record [entries.(i)], or [vacant]
   when empty. A key's home bucket is the top bits of a Fibonacci
   multiply, and the bucket count is a power of two, at least twice
   the live count, so a probe step is an add and a mask. Deletion
   shifts the rest of the probe cluster back instead of leaving a
   tombstone. Nothing iterates the index (D003). *)
type t = {
  mutable keys : int array;
  mutable entries : Record.t array;
  mutable shift : int; (* 63 - log2 (bucket count) *)
  mutable records : Record.t array;
  mutable live : int;
  vacant : Record.t;
}

let create () =
  let vacant = Record.make ~key:(-1) ~now:0.0 ~size_bits:1 in
  { keys = Array.make 64 0; entries = Array.make 64 vacant; shift = 63 - 6;
    records = Array.make 256 vacant; live = 0; vacant }

let[@inline] home t key = (key * 0x9E3779B97F4A7C1) lsr t.shift
let[@inline] mask t = Array.length t.keys - 1

(* The bucket holding [key], or the empty bucket ending its probe
   sequence when it is absent: [entries.(i) == vacant] tells which. *)
let[@hot] rec probe t key i =
  let r = t.entries.(i) in
  if r == t.vacant || t.keys.(i) = key then i
  else probe t key ((i + 1) land mask t)

let[@inline] bucket t key = probe t key (home t key)

let live_count t = t.live

let find t key =
  let i = bucket t key in
  let r = t.entries.(i) in
  if r == t.vacant then None else Some r

let mem t key = t.entries.(bucket t key) != t.vacant

let slot_of_key t key =
  let r = t.entries.(bucket t key) in
  if r == t.vacant then None else Some r.Record.slot

let record_at t slot =
  if slot < 0 || slot >= t.live then invalid_arg "Table.record_at: no such slot";
  t.records.(slot)

(* Double the bucket count and re-place every live record. *)
let grow_index t =
  let n = 2 * Array.length t.keys in
  t.keys <- Array.make n 0;
  t.entries <- Array.make n t.vacant;
  t.shift <- t.shift - 1;
  for slot = 0 to t.live - 1 do
    let r = t.records.(slot) in
    let i = bucket t r.Record.key in
    t.keys.(i) <- r.Record.key;
    t.entries.(i) <- r
  done

let insert t r =
  let key = r.Record.key in
  if 2 * (t.live + 1) > Array.length t.keys then grow_index t;
  let i = bucket t key in
  if t.entries.(i) != t.vacant then invalid_arg "Table.insert: key already live";
  if t.live = Array.length t.records then begin
    let grown = Array.make (2 * t.live) t.vacant in
    Array.blit t.records 0 grown 0 t.live;
    t.records <- grown
  end;
  t.keys.(i) <- key;
  t.entries.(i) <- r;
  t.records.(t.live) <- r;
  r.Record.slot <- t.live;
  t.live <- t.live + 1

(* Empty bucket [hole] by backward shift: walk the rest of its cluster
   and move back each entry whose home does not lie cyclically in
   (hole, j], so every key stays reachable from its home without a
   tombstone. *)
let rec close_hole t hole j =
  let r = t.entries.(j) in
  if r == t.vacant then t.entries.(hole) <- t.vacant
  else begin
    let m = mask t in
    let next = (j + 1) land m in
    if (j - home t t.keys.(j)) land m >= (j - hole) land m then begin
      t.keys.(hole) <- t.keys.(j);
      t.entries.(hole) <- r;
      close_hole t j next
    end
    else close_hole t hole next
  end

let remove t key =
  let i = bucket t key in
  let r = t.entries.(i) in
  if r == t.vacant then None
  else begin
    close_hole t i ((i + 1) land mask t);
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
  end

let fold t ~init ~f =
  let live = Array.sub t.records 0 t.live in
  Array.sort (fun a b -> Int.compare a.Record.key b.Record.key) live;
  Array.fold_left f init live

let random_key t rng =
  if t.live = 0 then None else Some t.records.(Rng.int rng t.live).Record.key
