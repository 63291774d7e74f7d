(* Bounded seq -> key memory for NACK-based repair.

   Channel sequence numbers are monotonic and NACKs only ever name
   recent gaps (the data links are FIFO), so the last [window]
   sequence numbers are all a sender needs to resolve feedback. Slot
   [seq land (window - 1)] holds the key announced with [seq] iff the
   recorded seq still matches; older sequences are silently
   overwritten by slot reuse. O(1) store and lookup, fixed memory —
   this replaces per-protocol Hashtbls that grew to 2 * window
   entries between fold-scan prunes. The arrays start at [initial]
   slots and jump once to the full window; a slot past their length
   was never stored, like a [-1] seq. *)

type t = {
  mutable seqs : int array;
  mutable keys : Record.key array;
  mask : int;
}

let initial = 256

let create ~window =
  if window <= 0 || window land (window - 1) <> 0 then
    invalid_arg "Seq_ring.create: window must be a positive power of two";
  let n = min window initial in
  { seqs = Array.make n (-1); keys = Array.make n 0; mask = window - 1 }

let grow t =
  let widen a fill =
    Array.init (t.mask + 1) (fun i -> if i < Array.length a then a.(i) else fill)
  in
  t.seqs <- widen t.seqs (-1);
  t.keys <- widen t.keys 0

let store t ~seq ~key =
  if seq < 0 then invalid_arg "Seq_ring.store: negative seq";
  let slot = seq land t.mask in
  if slot >= Array.length t.seqs then grow t;
  t.seqs.(slot) <- seq;
  t.keys.(slot) <- key

let find t seq =
  if seq < 0 then None
  else
    let slot = seq land t.mask in
    (* lint: allow A002 the option result is the lookup API; one int-payload cell per NACK resolution, not per packet *)
    if slot < Array.length t.seqs && t.seqs.(slot) = seq then Some t.keys.(slot)
    else None
