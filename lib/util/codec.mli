(** Binary readers and writers for wire formats.

    SSTP messages are encoded with these primitives. All multi-byte
    integers are big-endian (network order). The reader raises
    {!Truncated} rather than returning partial values so that a
    malformed packet aborts decoding cleanly. *)

exception Truncated
(** Raised by [Reader] operations that run past the end of input. *)

module Writer : sig
  type t

  val create : ?initial_capacity:int -> unit -> t

  val u8 : t -> int -> unit
  (** Append one byte; value must fit in [0, 255]. *)

  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Append a 32-bit unsigned big-endian integer in [0, 2^32). *)

  val f64 : t -> float -> unit
  (** Append an IEEE-754 double, big-endian. *)

  val bytes : t -> string -> unit
  (** Append raw bytes with no length prefix. *)

  val string16 : t -> string -> unit
  (** Append a [u16] length prefix followed by the bytes; the string
      must be shorter than 65536 bytes. *)

  val contents : t -> string

  val clear : t -> unit
  (** Empty the writer, keeping its capacity for reuse. *)

  val length : t -> int
  (** Bytes written since creation or the last [clear]. *)
end

module Reader : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val f64 : t -> float
  val bytes : t -> int -> string
  val string16 : t -> string
end
