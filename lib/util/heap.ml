(* Binary min-heap in unboxed parallel arrays, without cancellation.

   Layout: heap order lives in three scalar arrays indexed by heap
   position — [hkey] (a flat float array), [hseq] (FIFO tie-break) and
   [hslot] (the entry's slot id). Payloads live in the per-slot
   [value] array and never move, so a sift step is a handful of
   unboxed int/float stores: no allocation, no pointer chasing and no
   GC write barrier.

   Sifts move a hole rather than swapping. The entry being placed is
   parked one past the last heap position, at index [size]: an insert
   bumps [size] first and writes the new entry there, and a pop
   shrinks [size] so the old last entry sits there. Neither sift ever
   writes index [size], so comparisons read the parked entry in place
   — loop state is int positions only, with no ref cell and no float
   parameter to box. The backing arrays keep one spare index for the
   parking spot. An insert sifts the hole up from the new last
   position; a pop walks it from the root down to a leaf, then sifts
   it up from there.

   Every (key, seq) pair is distinct, so the order entries leave the
   heap does not depend on its internal layout. *)

type 'a t = {
  (* heap order, indexed by heap position; index [size] parks the
     entry being sifted *)
  mutable hkey : float array;
  mutable hseq : int array;
  mutable hslot : int array;
  (* stable payloads, indexed by slot id *)
  mutable value : 'a array; (* allocated on first insert: no dummy 'a *)
  (* free-slot stack: every heap entry owns exactly one slot *)
  mutable free : int array;
  mutable free_top : int;
  mutable size : int;
  mutable next_seq : int;
}

let min_capacity = 64
let shrink_threshold = 256

let full_free_stack cap = Array.init cap (fun i -> cap - 1 - i)

let create ?(initial_capacity = min_capacity) () =
  let cap = max 2 initial_capacity in
  { hkey = Array.make cap 0.0;
    hseq = Array.make cap 0;
    hslot = Array.make cap 0;
    value = [||];
    free = full_free_stack cap;
    free_top = cap;
    size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.hkey

(* Whether heap position [i] orders strictly before the parked entry. *)
let[@hot][@inline] before_parked t i =
  let p = t.size in
  t.hkey.(i) < t.hkey.(p)
  || (t.hkey.(i) = t.hkey.(p) && t.hseq.(i) < t.hseq.(p))

(* 1 when heap position [i] orders strictly before position [j], else
   0, computed as a value rather than a branch: which of two siblings
   is smaller is a coin flip that branch prediction cannot learn. *)
let[@hot][@inline] before_bit t i j =
  let ki = t.hkey.(i) and kj = t.hkey.(j) in
  Bool.to_int (ki < kj)
  lor (Bool.to_int (ki = kj) land Bool.to_int (t.hseq.(i) < t.hseq.(j)))

let[@hot][@inline] move t ~src ~dst =
  t.hkey.(dst) <- t.hkey.(src);
  t.hseq.(dst) <- t.hseq.(src);
  t.hslot.(dst) <- t.hslot.(src)

(* Move the hole at [i] up past every parent that orders after the
   parked entry; returns the hole's final position. *)
let[@hot] rec sift_up t i =
  if i = 0 then 0
  else begin
    let p = (i - 1) / 2 in
    if before_parked t p then i
    else begin
      move t ~src:p ~dst:i;
      sift_up t p
    end
  end

(* Move the hole at [i] down to a leaf, always promoting the smaller
   child; returns the leaf. Extraction then sifts the parked entry up
   from there (bottom-up extraction): the parked entry is the old last
   leaf, which usually belongs near the bottom, so the way down skips
   comparing against it at every level. *)
let[@hot] rec sift_down t i =
  let left = (2 * i) + 1 in
  if left >= t.size then i
  else begin
    let c =
      if left + 1 < t.size then left + before_bit t (left + 1) left else left
    in
    move t ~src:c ~dst:i;
    sift_down t c
  end

let grow t =
  let cap = Array.length t.hkey in
  let ncap = 2 * cap in
  let copy_int a = let n = Array.make ncap 0 in Array.blit a 0 n 0 cap; n in
  let nk = Array.make ncap 0.0 in
  Array.blit t.hkey 0 nk 0 cap;
  t.hkey <- nk;
  t.hseq <- copy_int t.hseq;
  t.hslot <- copy_int t.hslot;
  let nf = Array.make ncap 0 in
  Array.blit t.free 0 nf 0 t.free_top;
  (* mint the new slot ids *)
  for id = cap to ncap - 1 do
    nf.(t.free_top + id - cap) <- id
  done;
  t.free <- nf;
  t.free_top <- t.free_top + cap

(* [value] lags the other arrays because a polymorphic array needs a
   seed element; the first inserted value becomes the filler. Freed
   slots keep their last payload until reused — bounded by capacity,
   and [clear] drops the whole array. The heap arrays need one index
   beyond the new last position for the parking spot. *)
let ensure_capacity t v =
  if t.size + 2 > Array.length t.hkey then grow t;
  if Array.length t.value < Array.length t.hkey then begin
    let nv = Array.make (Array.length t.hkey) v in
    Array.blit t.value 0 nv 0 (Array.length t.value);
    t.value <- nv
  end

let insert t ~key v =
  ensure_capacity t v;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  t.value.(slot) <- v;
  let i = t.size in
  t.size <- i + 1;
  let p = t.size in
  t.hkey.(p) <- key;
  t.hseq.(p) <- t.next_seq;
  t.hslot.(p) <- slot;
  t.next_seq <- t.next_seq + 1;
  move t ~src:p ~dst:(sift_up t i)

let min_key t = if t.size = 0 then None else Some t.hkey.(0)

(* Zero-alloc variants of peek/pop for per-event callers: the
   option/tuple results cost two blocks per engine step. The
   protocol is top (slot id or -1), then top_key / slot_value to read
   the entry, then drop_top to extract it. A freed slot keeps its
   payload until the slot is reused by an insert, so reading
   slot_value immediately after drop_top is sound. *)
let[@hot] top t = if t.size = 0 then -1 else t.hslot.(0)
let[@hot] top_key t = t.hkey.(0)
let[@hot] slot_value t slot = t.value.(slot)

(* Release the root's slot and refill the root from the old last
   entry, parked at the new [size]. *)
let[@hot] drop_top t =
  t.free.(t.free_top) <- t.hslot.(0);
  t.free_top <- t.free_top + 1;
  t.size <- t.size - 1;
  if t.size > 0 then move t ~src:t.size ~dst:(sift_up t (sift_down t 0))

let peek t =
  if t.size = 0 then None else Some (t.hkey.(0), t.value.(t.hslot.(0)))

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.hkey.(0) and v = t.value.(t.hslot.(0)) in
    drop_top t;
    Some (key, v)
  end

let clear t =
  t.size <- 0;
  t.next_seq <- 0;
  if Array.length t.hkey > shrink_threshold then begin
    t.hkey <- Array.make min_capacity 0.0;
    t.hseq <- Array.make min_capacity 0;
    t.hslot <- Array.make min_capacity 0
  end;
  let cap = Array.length t.hkey in
  t.free <- full_free_stack cap;
  t.free_top <- cap;
  (* always drop payload references so cleared calendars leak nothing *)
  t.value <- [||]
