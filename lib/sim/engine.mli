(** Discrete-event simulation engine.

    A calendar of timestamped callbacks drives all protocol
    simulations in this repository. Time is a float in seconds and
    advances only when events fire; there is no wall-clock coupling,
    so simulated years run in milliseconds.

    The engine is deliberately minimal: schedule, run until a horizon
    or until the calendar drains. Model processes (arrivals, services,
    timers) are ordinary closures that reschedule themselves.

    One calendar backs the engine: a binary heap keyed by time. One-shot
    events ({!schedule}), each occurrence of a recurring timer
    ({!every}) and every per-key soft-state timer are entries in it.
    A scheduled event cannot be cancelled: it always fires, and a
    callback whose work has become moot checks its own state and
    returns (the soft-state expiry timers push their deadlines back
    this way). Determinism contract: events fire in (time, scheduling
    order) — at equal timestamps, whichever event was scheduled first
    fires first. *)

type t

val create : ?start:float -> unit -> t
(** [create ~start ()] makes an engine whose clock starts at [start]
    (default 0). *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> after:float -> (t -> unit) -> unit
(** [schedule t ~after f] arranges for [f t] to run at
    [now t +. after]. [after] must be non-negative (NaN is rejected):
    the past is not schedulable. Events at equal times fire in
    scheduling order. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute-time variant; [time] must not precede [now t] and must
    not be NaN. *)

val pending : t -> int
(** Number of events still scheduled. *)

val events_fired : t -> int
(** Total events fired since creation. *)

val high_water : t -> int
(** Deepest the calendar has ever been — the loop-health number that
    catches runaway self-rescheduling. *)

val on_step : t -> (t -> unit) -> unit
(** [on_step t f] runs [f t] after every fired event (composing with
    any hook already installed). The observability layer uses this to
    sample loop health; keep [f] cheap. *)

val step : t -> bool
(** Fire the single earliest event; [false] when the calendar is
    empty. *)

val run : ?until:float -> t -> unit
(** [run ?until t] fires events in time order until the calendar is
    empty or the next event lies strictly beyond [until]. When a
    horizon is given the clock is left at [until] (so time-weighted
    statistics can be closed out at the horizon). *)

val every : t -> period:float -> ?jitter:(unit -> float) -> (t -> unit)
  -> (unit -> bool)
(** [every t ~period f] arms a recurring timer: [f] runs at
    now + period, then repeatedly each [period] (plus [jitter ()] if
    given). [period] must be positive and finite, and so must each
    jittered delay. Each occurrence is one calendar event, scheduled
    when the previous one fires. The returned stopper ends the
    recurrence: the occurrence already in the calendar still fires but
    runs nothing and arms nothing. It returns [true] if the timer was
    running, [false] if it had already been stopped. *)
