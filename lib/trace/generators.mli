(** Synthetic application workloads (paper §1, §6).

    Each generator is deterministic given its RNG and produces a
    {!Trace_event.t} shaped like one of the soft-state applications
    the paper motivates. Parameters have sane defaults matching the
    cited systems' folklore behaviour; they are substitutes for
    unavailable production traces (see DESIGN.md, substitutions). *)

val session_directory :
  rng:Softstate_util.Rng.t ->
  duration:float ->
  ?arrival_rate:float ->
  ?mean_lifetime:float ->
  unit ->
  Trace_event.t
(** sdr/SAP-like conference announcements: sessions arrive Poisson
    (default 0.05/s), live Pareto-tailed lifetimes (mean default
    600 s, shape 1.5 — a few marathon sessions), each carrying a
    description of 300 printable bytes. Paths are
    ["sessions/<id>/sdp"]. Sessions occasionally (10%) update their
    description mid-life. *)

val routing_updates :
  rng:Softstate_util.Rng.t ->
  duration:float ->
  ?prefixes:int ->
  ?flap_fraction:float ->
  unit ->
  Trace_event.t
(** Route advertisements over a fixed prefix table (default 200
    prefixes at ["routes/<prefix>"]). All prefixes are announced at
    time 0; thereafter a calm majority re-announces at 1/300 s per
    prefix while a small [flap_fraction] (default 5%) of flapping
    prefixes alternates withdraw/announce at 1/10 s — the
    heavy-tailed update skew
    observed in BGP. *)

val flash_crowd :
  rng:Softstate_util.Rng.t ->
  duration:float ->
  ?keys:int ->
  ?base_rate:float ->
  ?mult:float ->
  ?period:float ->
  ?dwell:float ->
  ?zipf_s:float ->
  unit ->
  Trace_event.t
(** Flash-crowd update stream: [keys] (default 32) records at
    ["flash/<key>"], all published at time 0, then updated by a
    piecewise Poisson process that runs at [base_rate *. mult] inside
    the burst windows ([dwell] seconds, default 10, out of every
    [period], default 60; multiplier default 8) and at [base_rate]
    (default 2/s) between them. Update targets are Zipf([zipf_s],
    default 1.1) skewed — the crowd rushes a few hot keys. Payloads
    are per-key version counters, so every update changes the
    record. *)

val stock_ticker :
  rng:Softstate_util.Rng.t ->
  duration:float ->
  ?symbols:int ->
  ?update_rate:float ->
  unit ->
  Trace_event.t
(** Quote dissemination: [symbols] (default 100) instruments at
    ["quotes/<sym>"], updated as a Poisson stream of [update_rate]
    total updates/s (default 20) spread across symbols by a Zipf law
    with exponent 1.1 — a few hot stocks take most
    of the updates. Payloads are little price strings that change
    every update. *)
