(** Stride scheduling (Waldspurger & Weihl, MIT/LCS/TM-528).

    The deterministic counterpart of lottery scheduling: each flow
    advances a {e pass} value by [stride = quantum / weight] per unit
    of service, and the backlogged flow with the smallest pass is
    served next. Allocation error is bounded by one quantum, unlike
    lottery's √n randomness — the reason the paper lists both. Flows
    re-entering after idleness have their pass brought forward to the
    global pass so they cannot claim back-service. *)

type t
type flow = int
(** Registration index of the flow (0, 1, ... in {!add_flow} order). *)

val create : unit -> t

val add_flow : t -> weight:float -> flow
val set_backlogged : t -> flow -> bool -> unit

val select : t -> flow option
(** Backlogged flow with minimum pass; FIFO on ties. *)

val charge_bits : t -> flow -> int -> unit
(** [charge_bits t f n] advances [f]'s pass by [n /. weight] and the
    global pass bookkeeping. Call once per service with the served
    packet's size. The size is an int, so a caller across a closure
    or module boundary passes it without a float box. *)
