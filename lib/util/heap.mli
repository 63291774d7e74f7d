(** Array-backed binary min-heap: the simulation event calendar.

    The calendar needs two operations fast: insert and extract-min.
    Nothing is ever removed except at the root — there are no handles
    and no cancellation. A caller that wants an entry to have no
    effect lets it fire and makes the callback check its own state.

    Internally the heap stores elements in unboxed parallel arrays
    (flat float keys, int sequence numbers, slot ids) with payloads in
    stable per-slot storage, and sifts by moving a hole, so neither
    insert nor extraction allocates once the arrays have grown. *)

type 'a t
(** Heap of elements prioritised by a float key (smallest first); ties
    broken by insertion order, so equal-key elements dequeue FIFO. *)

val create : ?initial_capacity:int -> unit -> 'a t

val length : 'a t -> int
(** Number of elements. *)

val is_empty : 'a t -> bool

val insert : 'a t -> key:float -> 'a -> unit
(** [insert t ~key v] adds [v] with priority [key]. *)

val min_key : 'a t -> float option
(** Smallest key, or [None] when empty. *)

(** {2 Allocation-free extraction}

    [min_key]/[peek]/[pop] wrap their results in options and tuples.
    The per-event protocol below allocates at most the float box of
    the key [top_key] returns: call [top]; if it returns a slot id
    [>= 0], read [top_key]/[slot_value], then [drop_top] to extract.
    A freed slot keeps its payload until an [insert] reuses it, so
    reading [slot_value slot] immediately after [drop_top] is
    sound. *)

val top : 'a t -> int
(** Slot id of the minimum element, or [-1] when empty. *)

val top_key : 'a t -> float
(** Key at the root. Only meaningful right after [top] returned
    [>= 0]. *)

val slot_value : 'a t -> int -> 'a
(** Payload of a slot returned by [top] — valid until the next
    [insert]. *)

val drop_top : 'a t -> unit
(** Extract the root. Only legal right after [top] returned [>= 0]. *)

val peek : 'a t -> (float * 'a) option
(** Minimum (key, value) without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum (key, value). *)

val clear : 'a t -> unit
(** Empty the heap: resets the FIFO sequence counter, drops payload
    references and shrinks the backing arrays back below a fixed
    threshold. *)

val capacity : 'a t -> int
(** Current backing-array length (exposed for tests and benchmarks). *)
