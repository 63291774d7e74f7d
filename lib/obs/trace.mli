(** Structured event tracing: sim-time-stamped protocol events flowing
    into a pluggable sink.

    Sinks compose: a {!memory} ring for tests, streaming {!jsonl_writer}
    / {!csv_writer} for the CLIs, {!filter} to narrow by component or
    event kind, {!tee} to fan out. {!null} swallows everything;
    instrumented hot paths guard event construction with {!enabled}
    so a disabled trace costs one branch per site. *)

type kind =
  | Packet_sent      (** a packet finished service at a link *)
  | Packet_dropped   (** the loss process destroyed it *)
  | Packet_delivered (** it survived and reached the receiver *)
  | Queue_overflow   (** a bounded queue rejected an enqueue *)
  | Announce         (** new state transmitted (hot queue / Data) *)
  | Refresh          (** periodic re-announcement (cold queue) *)
  | Summary          (** namespace digest summary sent *)
  | Nack             (** negative acknowledgement issued *)
  | Query            (** signature request issued *)
  | Repair           (** repair response or reheat performed *)
  | Remove           (** state withdrawal propagated *)
  | Digest_mismatch  (** receiver digest disagreed with a summary *)
  | Timer_fired      (** engine calendar event fired *)
  | Link_down        (** fault injection took a topology link down *)
  | Link_up          (** fault injection restored a topology link *)
  | Node_crash       (** fault injection crashed a topology node *)
  | Node_restart     (** fault injection restarted a topology node *)
  | Partition        (** a partition cut a set of links at once *)
  | Heal             (** every link restored after a partition *)
  | Custom of string

val kind_to_string : kind -> string

(* lint: allow U001 (a) used by test "kind round-trip exhaustive" *)
val kind_of_string : string -> kind
(** Unknown strings map to [Custom]. *)

type event = {
  time : float;   (** simulation time, seconds *)
  src : string;   (** component instance, e.g. ["session.data"] *)
  kind : kind;
  detail : string;(** kind-dependent: path, reason, ... *)
  value : float;  (** kind-dependent: size in bits, depth, ... *)
  key : int;      (** record key the event concerns, or {!no_id} *)
  packet : int;   (** packet / envelope sequence number, or {!no_id} *)
  hop : int;      (** hop index along a topology path, or {!no_id} *)
  parent : int;   (** causal parent packet (e.g. the NACKed seq), or {!no_id} *)
}

val no_id : int
(** [-1]: the absent value for every correlation field. *)

val event :
  time:float -> src:string -> ?detail:string -> ?value:float -> ?key:int ->
  ?packet:int -> ?hop:int -> ?parent:int -> kind -> event

type t
(** A sink. *)

val null : t
(** Swallows every event. *)

val enabled : t -> bool
(** [false] exactly for {!null}: hot paths use it to skip event
    construction entirely. *)

val emit : t -> event -> unit

val memory : ?capacity:int -> unit -> t
(** In-memory ring keeping the last [capacity] (default 65536)
    events; older events are overwritten. *)

val recorder : unit -> t
(** Flight recorder: a fixed-size ring of the last 512 events, O(1)
    per emit with no allocation beyond the event itself. Cheap enough
    to leave attached for a whole run; when an oracle fires,
    {!recent} is the black box. *)

val recent : t -> event list
(** Contents of a {!recorder} (or {!memory}) sink, oldest first.
    Raises [Invalid_argument] on other sinks. *)

(* lint: allow U001 (a) used by test "recorder ring" *)
val seen : t -> int
(** Total events ever offered to a {!recorder}, including those the
    ring has since overwritten. *)

val events : t -> event list
(** Contents of a {!memory} sink, oldest first. Raises
    [Invalid_argument] on other sinks. *)

val overwritten : t -> int
(** Events lost to the {!memory} ring's capacity. *)

(* lint: allow U001 (a) used by test "link down/up" *)
val count : t -> kind -> int
(** Occurrences of [kind] in a {!memory} sink. *)

val filter : (event -> bool) -> t -> t

val tee : t list -> t

val jsonl_writer : (string -> unit) -> t
(** Streams one JSON object per event; each call receives a complete
    line including the newline. *)

val csv_writer : (string -> unit) -> t
(** Same, in CSV; emits a header row before the first event. *)

val to_json : event -> string
(** One-line JSON encoding ([detail] and [value] omitted when empty /
    zero; correlation fields ["key"]/["pkt"]/["hop"]/["par"] omitted
    at {!no_id}). *)

val of_json : string -> (event, string) result
(** Inverse of {!to_json}. *)

(* lint: allow U001 (a) used by test "csv writer" *)
val csv_header : string

(* lint: allow U001 (a) used by test "correlation fields" *)
val to_csv : event -> string
(** Fixed five-column summary row; correlation fields are JSONL-only
    (the CSV shape is pinned by downstream spreadsheets). *)
