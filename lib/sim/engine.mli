(** Discrete-event simulation engine.

    A calendar of timestamped callbacks drives all protocol
    simulations in this repository. Time is a float in seconds and
    advances only when events fire; there is no wall-clock coupling,
    so simulated years run in milliseconds.

    The engine is deliberately minimal: schedule, run until a horizon
    or until the calendar drains. Model processes (arrivals, services,
    timers) are ordinary closures that reschedule themselves.

    The calendar is a binary heap keyed by time, with FIFO lanes
    beside it. One-shot events ({!schedule}), each occurrence of a
    recurring timer ({!every}) and each per-key soft-state expiry
    timer are entries in the heap. A lane ({!lane}) holds events that
    all share one constant delay — the fixed-lifetime deaths — and
    only its oldest entry sits in the heap, so a lane of a thousand
    pending events costs the heap one entry. A scheduled event cannot
    be cancelled: it always fires, and a callback whose work has
    become moot checks its own state and returns (the soft-state
    expiry timers push their deadlines back this way). Determinism
    contract: events fire in (time, scheduling order) — at equal
    timestamps, whichever event was scheduled first fires first, lane
    entries included.

    Coalesced runs: an event scheduled at the same time as the event
    scheduled just before it, while that one is still pending, joins
    its calendar entry instead of making a new one. An entry thus
    holds a run of callbacks that fire back to back in scheduling
    order, which is the order they would have fired in as separate
    entries, so the contract above holds exactly. A tree's per-hop
    wave, whose hops are scheduled one after another at one instant,
    costs one heap insert and one sift instead of one per hop. The
    calendar entry keeps a cursor to its next callback: {!step} fires
    exactly one callback and leaves the rest of the run pending, and
    {!pending}, {!events_fired}, {!high_water} and {!on_step} count
    callbacks, not entries; a lane entry counts as one callback whether
    or not it is the lane's head. *)

type t

val create : unit -> t
(** [create ()] makes an engine whose clock starts at 0. *)

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

(* lint: allow U001 (a) used by test "step" *)
val step : t -> bool
(** Fire the single earliest event; [false] when the calendar is
    empty. *)

val run : ?until:float -> t -> unit
(** [run ?until t] fires events in time order until the calendar is
    empty or the next event lies strictly beyond [until]. When a
    horizon is given the clock is left at [until] (so time-weighted
    statistics can be closed out at the horizon). *)

val every : t -> period:float -> (t -> unit) -> (unit -> bool)
(** [every t ~period f] arms a recurring timer: [f] runs at
    now + period, then repeatedly each [period]. [period] must be
    positive and finite. Each occurrence is one calendar event, scheduled
    when the previous one fires. The returned stopper ends the
    recurrence: the occurrence already in the calendar still fires but
    runs nothing and arms nothing. It returns [true] if the timer was
    running, [false] if it had already been stopped. *)

(** {2 Lanes} *)

type lane
(** A FIFO of events that all fire [delay] after they are scheduled,
    each carrying an int payload for one shared handler. *)

val lane : t -> delay:float -> (t -> int -> unit) -> lane
(** [lane t ~delay handler] makes an empty lane on [t]. [delay] must be
    non-negative (NaN is rejected). The lane schedules nothing until
    {!lane_schedule}. *)

val lane_schedule : lane -> int -> unit
(** [lane_schedule l x] arranges for [handler t x] to run at
    [now t +. delay], exactly as [schedule t ~after:delay] would: it
    fires in (time, scheduling order) among all the engine's events,
    and counts as one in {!pending}, {!high_water} and
    {!events_fired}. Allocates only when the lane's ring grows. *)
