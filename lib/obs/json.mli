(** Minimal JSON support: enough to serialise trace events, metric
    snapshots and run reports without an external dependency, plus a
    parser for the flat objects those encoders produce so JSONL trace
    files can be read back by tests and tools. *)

val string : string -> string
(** Quoted, escaped string literal. *)

val int : int -> string

val bool : bool -> string

val float : float -> string
(** Shortest decimal representation that round-trips through
    [float_of_string]; NaN encodes as [null]. *)

val obj : (string * string) list -> string
(** [obj fields] with already-encoded values. *)

val list : string list -> string

(** {1 Flat-object parsing} *)

type value =
  | String of string
  | Number of float
  | Bool of bool
  | Null
  | List of value list  (** one level deep, scalar elements only *)

val parse_flat : string -> ((string * value) list, string) result
(** Parse one object whose values are scalars, or one-level lists of
    scalars (no deeper nesting), in source order. *)

val member : string -> (string * value) list -> value option
