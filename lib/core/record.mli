(** Soft-state records: versioned {key, value} pairs (paper §2).

    A record is live from its insertion into the publisher's table
    until its death. Updating a key bumps the version, which puts the
    receiver back in the inconsistent state for that key — exactly the
    paper's treatment of an update as a fresh item entering the
    system. *)

type key = int
type version = int

(** A record's place in its sender's circulation: never queued, queued
    hot (foreground) or cold (background), announcement in flight, or
    killed (queue entries naming it are stale). *)
type state = Idle | Hot | Cold | In_service | Dead

type t = {
  key : key;
  mutable version : version;
  mutable born : float;
    (** creation time of the {e current} version, for receive-latency *)
  size_bits : int;  (** announcement wire size for this record *)
  mutable slot : int;  (** dense {!Table} slot, [-1] outside; {!Table}'s *)
  mutable state : state;
    (** owned by the circulation protocol queueing the record *)
  mutable gen : int;
    (** queue-entry generation, advanced by {!Two_queue} per enqueue *)
  mutable matching : int;
    (** receivers holding [version]: {!touch} resets it, {!Base}
        counts each delivery of the current version and each false
        expiry of a matching copy; not kept after death *)
}

val make : key:key -> now:float -> size_bits:int -> t
(** A fresh record at version 0, [Idle], outside any table. *)

val touch : t -> now:float -> unit
(** Publish a new value: bump the version, restart the latency clock
    for the new version and zero [matching], since every receiver's
    copy is now stale. *)
