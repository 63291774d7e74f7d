(** Causal lifecycle reconstruction over a trace.

    Rebuilds, from any event stream (a {!Trace.memory} sink, a flight
    {!Trace.recorder}, or a JSONL trace file read back), the per-key
    soft-state story — announce, hop-by-hop delivery, refresh, repair,
    expiry — and per-packet causal chains, then derives the paper's
    diagnostic quantities: per-key time-to-consistency, repair
    latency, NACK backlog over time, and critical-path attribution of
    staleness to injected faults ("this key was stale 3.2 s because
    link 4-5 was down").

    Key identity: the event's [key] correlation field when set; SSTP
    events (src ["sender"]/["receiver"]) fall back to [detail], which
    carries the namespace path. A packet is tied to its key by the
    sender-side Announce/Refresh/Repair/Remove event sharing its
    sequence number. A packet counts as delivered at the first
    [Packet_delivered] on its deepest observed hop (the final edge of
    its path over a topology; the only hop over single-hop
    transports). *)

type culprit = {
  link : string;           (** [Link_down] detail: "a-b" node pair *)
  down_at : float;
  up_at : float option;    (** [None]: still down at end of trace *)
}

(** A fault-induced delivery failure of one of the key's packets, and
    when (if ever) a later packet of the same key got through. *)
type stall = {
  packet : int;
  dropped_at : float;
  drop_src : string;       (** edge label that swallowed the packet *)
  drop_hop : int;
  recovered_at : float option;
  culprits : culprit list; (** links down at [dropped_at] *)
}

type key_stats = {
  key : string;
  announces : int;
  refreshes : int;
  repairs : int;
  removes : int;
  nacks : int;
  queries : int;
  first_delivery : float option;
  time_to_consistency : float option;
      (** first completed delivery minus first announce *)
  repair_latencies : float array;
      (** per NACK: delay until the key's next completed delivery *)
  stalls : stall list;
}

type t

val of_event_list : Trace.event list -> t
(** Analyse an event list (sorted into time order first, stably). *)

val of_jsonl : string -> (t, string) result
(** Load and analyse a JSONL trace file (one {!Trace.to_json} line per
    event; blank lines ignored). *)

val keys : t -> key_stats list
(** Per-key lifecycles, sorted by key name. *)

(* lint: allow U001 (a) used by test "reconstruction" *)
val find : t -> string -> key_stats option
val events : t -> Trace.event array
val horizon : t -> float
(** Time of the last event. *)

val chain : t -> int -> Trace.event list
(** [chain t pkt] is the causal chain of packet [pkt]: every event
    carrying it as its packet id or as its causal parent, in time
    order — the announce that created it, its per-hop fate, and the
    NACKs/queries/repairs it triggered. *)

val stall_duration : t -> stall -> float
(** Recovery time, or time-to-end-of-trace for unrecovered stalls. *)

val stalest : t -> key_stats list
(** Keys that suffered at least one fault stall, worst first. *)

val ttc_values : t -> float list
val repair_latency_values : t -> float list

(* lint: allow U001 (a) used by test "percentile" *)
val percentile : float list -> float -> float
(** Exact linear-interpolation percentile ([q] in [0,1]); [nan] on an
    empty list. O(n log n) and retains the full list — fine for tests
    and small traces; reports over large traces use {!sketch}. *)

val sketch : float list -> Softstate_util.Sketch.t
(** The values folded into a streaming quantile sketch (the sketch's
    default [epsilon], 0.01): bounded-memory percentiles with a documented
    rank-error bound, as used by the analyzer CLI's reports. *)

type depth_point = {
  bucket_start : float;
  nacks : int;       (** NACK/Query events issued in the bucket *)
  repairs : int;     (** Repair events in the bucket *)
  outstanding : int;
      (** repair requests issued but not yet answered by a completed
          delivery of their key, sampled at the bucket's end *)
}

val nack_depth_series : t -> bucket:float -> depth_point list
(** Repair-backlog series: how deep the NACK queue ran over time —
    the observable behind the feedback-collapse figure. *)
