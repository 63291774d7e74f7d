(** Transmission units.

    The network substrate is polymorphic in the payload: protocols
    define their own message types and wrap them with the size that
    determines transmission time on rate-limited links. *)

type 'a t = {
  id : int;         (** correlation identity (protocol sequence number),
                        or {!no_id}; carried into trace events so a
                        packet's hop-by-hop fate can be reconstructed *)
  size_bits : int;  (** wire size, bits; determines service time *)
  payload : 'a;
}

val no_id : int
(** [-1]: the id of packets with no correlation identity. *)

val make : size_bits:int -> 'a -> 'a t
(** [make ~size_bits payload] wraps a payload with id {!no_id};
    [size_bits] must be positive (zero-size packets would make service
    instantaneous and break FIFO accounting). *)

val stamped : id:int -> size_bits:int -> 'a -> 'a t
(** [stamped ~id ~size_bits payload] is {!make} with a correlation
    id: senders stamp their own deterministic sequence number (never a
    global counter, which would break cross-domain reproducibility).
    A separate constructor rather than an optional argument, whose
    [Some] cell would cost an allocation per packet. *)
