(** Phase 2, A-family: hot-path allocation checks over definitions
    marked [@hot] (or named by [Config.hot_paths]).

    - A001 — closure construction per call.
    - A002 — heap block per call (tuple, record, constructor with
      payload, array/string allocation, ref, lazy).
    - A003 — partial application materializing an intermediate
      closure.
    - A004 — list building ([::], [@], the [List.map] family).

    The rules are per-definition, not transitive: amortized slow
    paths belong in separate, unannotated helpers. *)

val check : Callgraph.t -> Summary.program -> Finding.t list
