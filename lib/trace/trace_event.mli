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

val length : t -> int

val replay :
  Softstate_sim.Engine.t ->
  t ->
  put:(path:string -> payload:string -> unit) ->
  remove:(path:string -> unit) ->
  unit
(** Schedule every event on the engine (absolute times, which must
    not precede the engine's current time). Raises [Invalid_argument]
    before scheduling anything if times decrease. *)
