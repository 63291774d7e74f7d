(** Orchestration: walk sources, parse each file once, run the
    single-file D-rules and the phase-1 summary scan on the same AST,
    run the whole-program R/A/U phase over the merged summaries, filter
    by {!Config} scope, rule selection and {!Suppress} directives,
    render reports. *)

type format = Text | Json

val collect : string list -> string list
(** [collect paths] lists every [.ml]/[.mli] under the given files or
    directories, sorted; hidden entries and [_build] are skipped. *)

type analysis = { findings : Finding.t list; summaries : Summary.program }

val analyze_paths : ?rules:string list -> string list -> analysis

(* lint: allow U001 (a) used by test "R001 cross unit" *)
val scan_sources :
  ?rules:string list ->
  ?with_m001:bool ->
  (string * string) list ->
  Finding.t list

val scan_source : file:string -> string -> Finding.t list
(** Lint one source text presented as living at path [file] (the path
    drives {!Config} scoping). Reports E001 if the text does not
    parse. Does not include M001, which needs the sibling file
    listing. Phase 2 runs over this single unit's summary, so
    same-file races and hot-path allocations are reported. *)

(* lint: allow U001 (a) used by test "M001 missing mli" *)
val missing_mli : string list -> Finding.t list
(** M001 over a file listing: every path for which
    {!Config.mli_required} holds must have its [.mli] in the list. *)

val scan_paths : string list -> Finding.t list
(** [collect], lint every file, add M001 — the full battery, sorted
    and deduplicated. *)

val apply_baseline :
  baseline:Finding.t list -> Finding.t list -> Finding.t list * int
(** Multiset subtraction: findings not covered by the baseline, plus
    how many were covered. A second instance of a recorded finding
    still surfaces. *)

val render : format -> Finding.t list -> string list
(** One line per finding: [Finding.to_text] or [Finding.to_json]
    (JSONL). *)
