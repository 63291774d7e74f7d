(** Array-backed binary min-heap: the simulation event calendar.

    The calendar needs two operations fast: insert and extract-min.
    Nothing is ever removed except at the root — there are no handles
    and no cancellation. A caller that wants an entry to have no
    effect lets it fire and makes the callback check its own state.

    Internally the heap stores elements in unboxed parallel arrays
    (flat float keys, int sequence numbers, slot ids) with payloads in
    stable per-slot storage, and sifts by moving a hole, so neither
    insert nor extraction allocates once the arrays have grown.

    Consecutive inserts with equal keys share one heap position: an
    insert at the previous insert's key, while that element is still
    in the heap, is linked behind it as a run and costs no sift, and
    extracting a run member other than the last costs no sift either.
    The order elements leave the heap is unchanged by this.

    A caller may also take an element's sequence number now and insert
    it later ({!mint}, {!insert_minted}): the engine's FIFO lanes keep
    only their oldest entry in the heap this way. *)

type 'a t
(** Heap of elements prioritised by a float key (smallest first); ties
    broken by sequence number — insertion order, or for
    {!insert_minted} the order of the {!mint} — so equal-key elements
    dequeue FIFO. *)

val create : unit -> 'a t
(** An empty heap with room for 64 elements; it grows as needed. *)

val length : 'a t -> int
(** Number of elements (run members count one each). *)

val insert : 'a t -> key:float -> 'a -> unit
(** [insert t ~key v] adds [v] with priority [key]. *)

val mint : 'a t -> int
(** Take the sequence number the next {!insert} would have used, for an
    element to be inserted later with {!insert_minted}; it orders
    after every element inserted so far and before every later one at
    its key. *)

val insert_minted : 'a t -> key:float -> seq:int -> 'a -> unit
(** [insert_minted t ~key ~seq v] adds [v] under a [seq] that {!mint}
    returned and that no other element holds. The element takes a
    heap position of its own: it neither joins a run nor opens one. *)

(** {2 Extraction}

    Extraction allocates at most the float box of the key [top_key]
    returns: call [top]; if it returns a slot id
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

val drop_top : 'a t -> bool
(** Extract the root. Only legal right after [top] returned [>= 0].
    [true] when the root's run goes on: the next member of the run is
    now the root, under the same key. *)
