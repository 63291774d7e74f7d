(** Phase 2, U-family: interface surface no program uses.

    - U001 — a [val] of an interface that no reference from another
      unit resolves to. References are the phase-1 summaries' alias-
      expanded identifiers, resolved by {!Callgraph.resolve};
      references from files under [test/] do not count
      ({!Config.counts_as_caller}), so an export kept only for its
      tests is flagged.
    - U002 — an optional label of a [val] another unit uses that no
      program application (its own unit's included) passes, [~l] and
      [?l] alike (an unapplied reference passes none); and an exported
      variant constructor no program expression builds (patterns do
      not count; an unqualified name matches by name alone). A [val]
      no other unit references is U001's.
    - U003 — an exported record field whose label no program
      projection or record pattern names (its own unit's included; a
      construction or [{ r with ... }] reads none), and an exported
      [mutable] one no program [<-] assigns. Labels match by name.

    An interface is judged only when its implementation is among the
    analysed files, and the verdict is only as good as the scanned
    set: lint every tree that may call the library. *)

val check : Callgraph.t -> Summary.program -> Finding.t list
(** Findings against each unit's [.mli], from the interface its
    summary carries. *)
