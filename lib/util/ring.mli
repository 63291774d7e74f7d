(** Bounded FIFO ring buffer.

    Backs the finite transmission queues of {!module:Softstate_net}
    links: constant-time push/pop and an explicit notion of overflow
    so drop-tail behaviour is a policy of the caller, not the
    container. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty ring holding at most [capacity]
    elements; [capacity] must be positive. *)

val length : 'a t -> int

val push : 'a t -> 'a -> bool
(** [push t x] enqueues at the tail; [false] (and no change) if full. *)

val pop : 'a t -> 'a option
(** Dequeue from the head. *)
