(** Application-level event streams for driving SSTP sessions.

    A trace is a time-ordered list of namespace operations; generators
    in this library synthesise traces shaped like the paper's
    motivating applications (session directories, routing updates,
    information dissemination feeds). Replay with {!replay}. *)

type op =
  | Put of { path : string; payload : string }
  | Remove of { path : string }

type event = { time : float; op : op }

type t = event list
(** Non-decreasing in [time]. *)

(* lint: allow U001 (b) DESIGN.md §1 row 9: workload generators *)
val check : t -> unit
(** Raises [Invalid_argument] if times decrease. *)

val length : t -> int
(* lint: allow U001 (b) DESIGN.md §1 row 9: workload generators *)
val duration : t -> float
(** Time of the last event; 0 for the empty trace. *)

(* lint: allow U001 (b) DESIGN.md §1 row 9: workload generators *)
val merge : t -> t -> t
(** Time-ordered merge of two traces. *)

val replay :
  Softstate_sim.Engine.t ->
  t ->
  put:(path:string -> payload:string -> unit) ->
  remove:(path:string -> unit) ->
  unit
(** Schedule every event on the engine (absolute times, which must
    not precede the engine's current time). *)
