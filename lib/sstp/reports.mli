(** RTCP-style receiver reports and loss estimation (§6.1).

    The receiver counts data-channel packets by their envelope
    sequence numbers; every reporting interval it computes the loss
    fraction over the interval and ships it to the sender, which
    smooths successive reports with an EWMA. The smoothed estimate is
    the sender's [sender.loss_estimate] metrics probe; it does not
    change the bandwidth split. *)

module Receiver_side : sig
  type t

  val create : unit -> t

  val on_packet : t -> seq:int -> unit
  (** Record receipt of data-channel sequence number [seq]. *)

  val flush : t -> Wire.msg
  (** Produce a {!Wire.Receiver_report} for the elapsed interval and
      reset the interval counters. Its loss estimate is the fraction
      lost since the last flush: 1 − received/expected, where expected
      is the advance of the highest sequence number; 0 when nothing
      was expected. *)
end

module Sender_side : sig
  type t

  val create : unit -> t
  (** The EWMA gain on successive reports is 0.25, conservative like
      RFC 3448-style smoothing. *)

  val on_report : t -> Wire.msg -> unit
  (** Consume a {!Wire.Receiver_report}; other messages raise
      [Invalid_argument]. *)

  val loss_estimate : t -> float
  (** Smoothed loss; 0 before the first report (optimistic start). *)
end
