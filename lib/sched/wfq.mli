(** Start-time fair queueing (Goyal et al.), a practical WFQ.

    Each flow carries a start tag; the scheduler serves the backlogged
    flow with the smallest start tag and advances that flow's tag by
    [size / weight]. Virtual time is the start tag of the flow in
    service, so flows that go idle and return resume from the current
    virtual time. Equivalent long-run behaviour to stride scheduling
    but with the classical WFQ formulation the paper cites ([17]). *)

type t
type flow = int
(** Registration index of the flow (0, 1, ... in {!add_flow} order). *)

val create : unit -> t

val add_flow : t -> weight:float -> flow
val set_backlogged : t -> flow -> bool -> unit

val select : t -> flow option
(** Backlogged flow with the minimum start tag. Also advances virtual
    time to that tag. *)

val charge : t -> flow -> float -> unit
(** Advance the flow's start tag by [size /. weight]. *)
