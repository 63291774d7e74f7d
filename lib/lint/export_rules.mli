(** Phase 2, U-family: exports no program calls.

    - U001 — a [val] of an interface that no reference from another
      unit resolves to. References are the phase-1 summaries' alias-
      expanded identifiers, resolved by {!Callgraph.resolve};
      references from files under [test/] do not count
      ({!Config.counts_as_caller}), so an export kept only for its
      tests is flagged.

    An interface is judged only when its implementation is among the
    analysed files, and the verdict is only as good as the scanned
    set: lint every tree that may call the library. *)

val check :
  Summary.program -> (string * Summary.export list) list -> Finding.t list
(** [check program interfaces]: [interfaces] pairs each [.mli] path
    with its exports. *)
