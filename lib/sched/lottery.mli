(** Lottery scheduling (Waldspurger & Weihl, OSDI '95).

    Each flow holds tickets proportional to its weight; every
    scheduling decision draws a ticket uniformly among {e backlogged}
    flows, so expected service is proportional to weight and no
    backlogged flow starves. This is one of the proportional-share
    mechanisms the paper suggests for sharing announcement bandwidth
    between the hot and cold queues (§4).

    Note: lottery allocation is proportional per {e decision}; with
    equal-size packets (the paper's announcements) that is also
    proportional per bit. For variable packet sizes use stride, WFQ
    or DRR, which charge by size (compensation tickets are not
    implemented): a lottery keeps no service history, so it has no
    [charge]. *)

type t
type flow = int
(** Registration index of the flow (0, 1, ... in {!add_flow} order). *)

val create : rng:Softstate_util.Rng.t -> t

val add_flow : t -> weight:float -> flow
(** [add_flow t ~weight] registers a flow with a positive ticket
    weight. New flows start idle (not backlogged). *)

val set_backlogged : t -> flow -> bool -> unit
(** Mark whether the flow currently has work. Only backlogged flows
    participate in draws. *)

val select : t -> flow option
(** Draw the next flow to serve; [None] if no flow is backlogged. *)
