(** Deficit round robin (Shreedhar & Varghese).

    Flows are visited in a fixed cycle; each visit adds [weight] to
    the flow's deficit (a weight-1.0 flow earns one unit of [charge]
    size per round) and the flow may send while its deficit covers
    the packet. Because our uniform
    scheduler interface picks the flow {e before} learning the packet
    size, this implementation lets the deficit go negative on the last
    packet of a visit and makes the flow wait for enough replenishment
    rounds to climb back — long-run shares remain proportional to the
    weights, with per-round burstiness bounded by one packet. *)

type t
type flow = int
(** Registration index of the flow (0, 1, ... in {!add_flow} order). *)

val create : unit -> t

val add_flow : t -> weight:float -> flow
val set_backlogged : t -> flow -> bool -> unit

val select : t -> flow option
(** The next backlogged flow in round-robin order whose deficit is
    positive; replenishes deficits round by round as needed. *)

val charge : t -> flow -> float -> unit
(** Take [size] from the flow's deficit; the flow keeps the turn
    while its deficit stays positive. *)
