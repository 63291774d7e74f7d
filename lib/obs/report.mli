(** End-of-run summary reports: named sections of key/value rows,
    renderable as a human table or machine JSON. *)

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type section = { title : string; rows : (string * value) list }

type t = { name : string; sections : section list }

val section : string -> (string * value) list -> section
val make : name:string -> section list -> t

val int : int -> value
val float : float -> value
val string : string -> value
val bool : bool -> value

val of_metrics : Metrics.t -> now:float -> section
(** A section titled ["metrics"]: one [Float] row per metric, in
    registration order. *)

val render : [ `Table | `Json ] -> t -> string
