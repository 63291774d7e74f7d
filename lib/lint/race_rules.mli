(** Phase 2, R-family: domain-safety checks.

    - R001 — a [Domain.spawn] / [Parallel] task closure reaches
      module-level mutable state outside the approved sync modules.
    - R002 — same, where the state is a lazy block (racy forcing).
    - R003 — the task draws from a shared [Rng] without
      [Rng.split]/[Rng.create] in the task or spawning definition.

    Findings are anchored at the spawn site and carry the call chain
    that reaches the offending state. *)

val check : Callgraph.t -> Summary.program -> Finding.t list
