(** Inline suppression directives.

    Grammar, inside an ordinary comment:

    {v (* lint: allow RULE reason... *) v}
    {v (* lint: allow RULE,RULE reason... *) v}

    Every named rule id must be known and the reason is mandatory — a
    suppression is an audit record. A directive naming U001, U002 or
    U003 keeps interface surface no program uses, so its reason must read
    {v (a) used by test "NAME" v}
    with NAME a test that a scanned [test/] file defines ({!stale}). A valid directive silences
    findings for the named rules on the directive's own line and on the line
    immediately after it (so it can sit at the end of the offending
    line or on its own line just above). A malformed directive (no
    reason, unknown rule, wrong verb, a U rule's reason in another
    form) is itself an S001 finding and suppresses nothing.

    Directives are recognised by lexing the source with the compiler's
    lexer, so directive-shaped text inside string literals is
    ignored. *)

type t

val empty : t

val scan : file:string -> string -> t * Finding.t list
(** Extract directives from a source text, returning the suppression
    table plus S001 findings for malformed directives. Never raises:
    unlexable source yields whatever was recognised before the
    error (the parse pass reports the error itself). *)

val allows : t -> line:int -> rule:string -> bool

val test_names : Parsetree.structure -> string list
(** The test names a test file defines: the first positional string
    literal of every [test_case] application, and every [~name:]
    string literal argument (qcheck properties). *)

val stale : file:string -> t -> known:(string -> bool) -> t * Finding.t list
(** [stale ~file t ~known] drops the U001, U002 and U003 directives whose
    named test is not [known], with an S001 finding for each. *)
