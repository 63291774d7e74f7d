(** Bounded seq -> key memory for NACK-based repair.

    A direct-mapped ring over the last [window] channel sequence
    numbers: {!store} and {!find} are O(1). Memory starts at 256 slots
    and reaches its fixed size, [window] slots, at the first store
    into a slot past them. Sequences older than the window are forgotten by slot
    reuse — by construction a FIFO data link can only produce NACKs
    for recent gaps, so a miss means the repair is obsolete. *)

type t

val create : window:int -> t
(** [window] must be a positive power of two. *)

val store : t -> seq:int -> key:Record.key -> unit
(** Remember that [seq] announced [key]. [seq] must be
    non-negative. *)

val find : t -> int -> Record.key option
(** The key announced with [seq], if it is still within the last
    [window] sequence numbers stored. *)
