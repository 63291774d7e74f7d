(** Loop-health probes for the discrete-event engine.

    {!attach} registers three derived metrics on the context's
    registry — [engine.events_fired], [engine.pending] and
    [engine.calendar_high_water] — so any simulation gets engine
    telemetry in its report for free. All three are functions of the
    simulation alone, so a registry snapshot is identical across
    replays of one seed; host-clock timing belongs to the benchmark
    ledger ([bench/ledger]). *)

val attach : obs:Obs.t -> Softstate_sim.Engine.t -> unit
