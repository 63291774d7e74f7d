(** The publisher's table of live records — the live data set L(t).

    Live records sit in a dense slot array, [0 .. live_count - 1],
    beside an int-keyed index from key to record; every protocol
    variant holds one as its authoritative state. The table owns each
    member's {!Record.t.slot}: a key-addressed lookup costs one index
    probe, and a slot-addressed one ({!record_at}) none. *)

type t

val create : unit -> t
val live_count : t -> int
val find : t -> Record.key -> Record.t option
(* lint: allow U001 (a) used by test "table insert/remove" *)
val mem : t -> Record.key -> bool

val insert : t -> Record.t -> unit
(** Add a fresh record at slot [live_count]; [Invalid_argument] if the
    key is already live (update via {!Record.touch} instead). *)

val remove : t -> Record.key -> Record.t option
(** Kill a record; [None] if it was not live. The last slot's record
    moves into the vacated slot, and the removed record's slot becomes
    [-1]. *)

(* lint: allow U001 (a) used by test "deliver" *)
val fold : t -> init:'a -> f:('a -> Record.t -> 'a) -> 'a
(** Every live record, in ascending key order. *)

val random_key : t -> Softstate_util.Rng.t -> Record.key option
(** A uniformly random live key, or [None] when empty; O(1). The
    draw depends only on the seeded generator and the insert/remove
    history, never on hash order. *)

val record_at : t -> int -> Record.t
(** The live record in dense slot [slot], with no index probe;
    [Invalid_argument] unless [0 <= slot < live_count]. Slot order is
    a function of the insert/remove history alone (see {!random_key}),
    so slot-addressed draws — e.g. Zipf-skewed update targets — stay
    deterministic. *)

val slot_of_key : t -> Record.key -> int option
(** The key's current dense slot in [0, live_count), or [None] if not
    live. Slots are stable between mutations but removal moves the
    last key into the vacated slot — callers holding slot-indexed
    side state must mirror that swap. *)
