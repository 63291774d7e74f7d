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
   heap does not depend on its internal layout. A sequence number is
   minted either by the insert itself or, ahead of time, by [mint]
   for a later [insert_minted]; either way each number is used once.

   Runs: an insert whose key equals the previous insert's key, while
   that insert is still in the heap, takes a fresh slot but no heap
   position. It is linked behind the previous insert's slot through
   the per-slot [link] array, so a heap position holds a run of
   elements that leave it in insertion order. This is the order the
   elements would have had as separate entries: the previous insert
   holds the largest sequence number minted, so no other element can
   fall between it and the newcomer. The root's [hslot] is the cursor
   into its run: [drop_top] frees that slot and advances to the next
   member, and moves the heap only when the run is spent. Free slots
   are chained through the same [link] array, so runs cost no storage
   beyond what the free-slot stack took. *)

type 'a t = {
  (* heap order, indexed by heap position; index [size] parks the
     entry being sifted *)
  mutable hkey : float array;
  mutable hseq : int array;
  mutable hslot : int array;
  (* stable payloads, indexed by slot id *)
  mutable value : 'a array; (* allocated on first insert: no dummy 'a *)
  (* indexed by slot id: a used slot's next member of its run, a free
     slot's next free slot; -1 ends either chain *)
  mutable link : int array;
  mutable free_head : int; (* top of the free-slot stack, or -1 *)
  mutable count : int; (* elements, one slot each *)
  mutable size : int; (* heap positions in use *)
  mutable next_seq : int;
  (* last slot of the most recent insert's run while it is in the
     heap, else -1; [tail_key.(0)] is that run's key (a flat cell, so
     writing it does not box) *)
  mutable tail : int;
  tail_key : float array;
}

let create () =
  let cap = 64 in
  { hkey = Array.make cap 0.0;
    hseq = Array.make cap 0;
    hslot = Array.make cap 0;
    value = [||];
    (* every slot free, chained in ascending order from slot 0 *)
    link = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    free_head = 0; count = 0;
    size = 0; next_seq = 0;
    tail = -1; tail_key = [| 0.0 |] }

let length t = t.count

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
  (* mint the new slot ids onto the free stack *)
  let nl = copy_int t.link in
  for id = cap to ncap - 2 do
    nl.(id) <- id + 1
  done;
  nl.(ncap - 1) <- t.free_head;
  t.link <- nl;
  t.free_head <- cap

(* [value] lags the other arrays because a polymorphic array needs a
   seed element; the first inserted value becomes the filler. Freed
   slots keep their last payload until reused — bounded by capacity.
   An insert takes one free slot, and a new heap position needs one
   index beyond it for the parking spot; positions in use never
   outnumber slots in use, so two free slots cover both. *)
let ensure_capacity t v =
  if t.count + 2 > Array.length t.hkey then grow t;
  if Array.length t.value < Array.length t.hkey then begin
    let nv = Array.make (Array.length t.hkey) v in
    Array.blit t.value 0 nv 0 (Array.length t.value);
    t.value <- nv
  end

(* Take a free slot for [v]. *)
let[@inline] take_slot t v =
  ensure_capacity t v;
  let slot = t.free_head in
  t.free_head <- t.link.(slot);
  t.link.(slot) <- -1;
  t.count <- t.count + 1;
  t.value.(slot) <- v;
  slot

(* Give [slot] a heap position of its own under ([key], [seq]). *)
let[@inline] place t ~key ~seq slot =
  let i = t.size in
  t.size <- i + 1;
  let p = t.size in
  t.hkey.(p) <- key;
  t.hseq.(p) <- seq;
  t.hslot.(p) <- slot;
  move t ~src:p ~dst:(sift_up t i)

let insert t ~key v =
  let slot = take_slot t v in
  if key = t.tail_key.(0) && t.tail >= 0 then t.link.(t.tail) <- slot
  else begin
    place t ~key ~seq:t.next_seq slot;
    t.next_seq <- t.next_seq + 1;
    t.tail_key.(0) <- key
  end;
  t.tail <- slot

(* A minted sequence number belongs to an element the caller inserts
   later, with [insert_minted]. Minting closes the open run: an insert
   after it must order after the minted element, so it may not join a
   run that opened before. *)
let[@hot] mint t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.tail <- -1;
  seq

(* An element under a sequence number minted earlier takes a heap
   position of its own. It may not join the open run: that run opened
   after the mint, so its members order after this element. Nor may it
   open one: a later insert at its key would be linked behind it, ahead
   of elements whose numbers fall in between. *)
let[@hot][@inline] insert_minted t ~key ~seq v = place t ~key ~seq (take_slot t v)

(* Allocation-free extraction for per-event callers: an option/tuple
   result would cost two blocks per engine step. The protocol is top
   (slot id or -1), then top_key / slot_value to read the entry, then
   drop_top to extract it. A freed slot keeps its payload until the
   slot is reused by an insert, so reading slot_value immediately
   after drop_top is sound. *)
let[@hot] top t = if t.size = 0 then -1 else t.hslot.(0)
let[@hot] top_key t = t.hkey.(0)
let[@hot] slot_value t slot = t.value.(slot)

(* Release the root's slot. If its run goes on, the next member takes
   the root with the same key and sequence number; otherwise refill
   the root from the old last entry, parked at the new [size]. *)
let[@hot] drop_top t =
  let slot = t.hslot.(0) in
  let next = t.link.(slot) in
  t.link.(slot) <- t.free_head;
  t.free_head <- slot;
  t.count <- t.count - 1;
  if next >= 0 then begin
    t.hslot.(0) <- next;
    true
  end
  else begin
    if slot = t.tail then t.tail <- -1;
    t.size <- t.size - 1;
    if t.size > 0 then move t ~src:t.size ~dst:(sift_up t (sift_down t 0));
    false
  end
