(** SSTP wire messages and their binary codec.

    Every message travels in an {!envelope} carrying a channel
    sequence number (for receiver-side loss estimation) and a sender
    timestamp (for report round-trip accounting). Encoding is
    big-endian; decoding of malformed input raises
    {!Softstate_util.Codec.Truncated} or [Failure]. *)

type child_kind = Leaf | Interior

type child = {
  name : string;
  digest : Digest.t;
  kind : child_kind;
  meta : string list;
      (** the sender's application-level tags for the node, so
          receivers can scope repair interest before fetching data *)
}

type msg =
  | Data of {
      path : string;
      version : int;
      payload : string;
      meta : string list;
    }  (** original transmission or NACK-requested repair of an ADU.
           [meta] rides along because it is part of the node digest:
           a receiver that stored the payload without the tags would
           never converge. *)
  | Summary of { root_digest : Digest.t; leaf_count : int }
      (** cold announcement of the root summary *)
  | Signatures of { path : string; children : child list }
      (** next-level signatures answering a {!Sig_request} *)
  | Remove of { path : string }
      (** explicit withdrawal of a subtree *)
  | Sig_request of { path : string }
      (** receiver asks for the children digests of [path] *)
  | Nack of { path : string }
      (** receiver asks for retransmission of a leaf *)
  | Receiver_report of {
      highest_seq : int;
      received : int;
      loss_estimate : float;
    }  (** RTCP-style feedback for adaptive allocation *)

type envelope = { seq : int; sent_at : float; msg : msg }

(* lint: allow U001 (a) used by test "roundtrip all variants" *)
val encode : envelope -> string
(* lint: allow U001 (a) used by test "roundtrip all variants" *)
val decode : string -> envelope
(** Raises [Codec.Truncated] on short input and [Failure] on an
    unknown message tag. *)

val sizer : unit -> envelope -> int
(** [sizer ()] is a function giving an envelope's wire size: the
    length of its encoding, in bits, plus a fixed 224-bit UDP/IP-header
    allowance so bandwidth accounting reflects real packets rather
    than bare payloads. It encodes into one writer of its own, cleared
    and reused on every call, so sizing allocates nothing once the
    writer has grown to the largest envelope seen. *)

(* lint: allow U001 (a) used by test "feedback classification" *)
val is_feedback : msg -> bool
(** Whether the message belongs on the receiver→sender channel. *)

(* lint: allow U001 (a) used by test "roundtrip all variants" *)
val describe : msg -> string
(** Short human-readable tag for logs and tests. *)
