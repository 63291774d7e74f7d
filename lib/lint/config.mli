(** Per-directory rule scoping.

    Which rules apply where is a property of the repository layout,
    not of individual call sites, so it lives in one table here rather
    than in scattered suppressions:

    - D001 applies everywhere except [lib/util/rng.ml]/[.mli], the one
      blessed randomness sink.
    - D002 applies everywhere except [bench/]: benchmarks measure wall
      time by definition.
    - D003 applies only under [lib/net], [lib/core], [lib/sstp] — the
      layers whose iteration order could reach packets, traces or
      results.
    - D004 applies under [lib/] and [bin/].
    - D005 and M001 apply under [lib/] only.
    - R001–R003 (domain safety) apply under [lib/] and [bin/] — every
      tree that can reach a [Domain.spawn].
    - A001–A004 (hot-path allocation) apply under [lib/] only.
    - U001 (unused export), U002 (unpassed optional label, unbuilt
      constructor) and U003 (unread record field, unassigned mutable
      field) apply under [lib/] except [lib/queueing]: those
      are the analytic models' APIs, reserved for the model-agreement
      gates that will call them.
    - S001 and E001 apply everywhere.

    Paths are matched on [/]-separated segments, so both repo-relative
    ([lib/net/topology.ml]) and absolute invocations scope
    correctly. *)

val enabled : path:string -> rule:string -> bool

val counts_as_caller : string -> bool
(** Whether a use in this file keeps an export, label, constructor or
    field alive for the U rules: everywhere but [test/]. *)

val mli_required : string -> bool
(** Whether M001 demands a matching [.mli] for this [.ml] path. *)

val sync_modules : string list
(** Units whose state is the approved way to share data across
    domains; their mutable state is exempt from the R-rules. *)

val is_hot_path : unit_name:string -> def_name:string -> bool
