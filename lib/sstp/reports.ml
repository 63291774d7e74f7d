module Ewma = Softstate_util.Ewma

module Receiver_side = struct
  type t = {
    mutable highest : int;     (* highest seq ever seen; -1 initially *)
    mutable interval_base : int;     (* highest at last flush *)
    mutable interval_received : int;
  }

  let create () =
    { highest = -1; interval_base = -1; interval_received = 0 }

  let on_packet t ~seq =
    if seq < 0 then invalid_arg "Reports: negative sequence number";
    t.interval_received <- t.interval_received + 1;
    if seq > t.highest then t.highest <- seq

  let expected_this_interval t = t.highest - t.interval_base

  let interval_loss t =
    let expected = expected_this_interval t in
    if expected <= 0 then 0.0
    else
      let lost = expected - t.interval_received in
      Float.max 0.0 (float_of_int lost /. float_of_int expected)

  let flush t =
    let report =
      Wire.Receiver_report
        { highest_seq = max 0 t.highest;
          received = t.interval_received;
          loss_estimate = interval_loss t }
    in
    t.interval_base <- t.highest;
    t.interval_received <- 0;
    report

end

module Sender_side = struct
  type t = Ewma.t

  let create () = Ewma.create ~alpha:0.25

  let on_report t = function
    | Wire.Receiver_report { loss_estimate; _ } -> Ewma.add t loss_estimate
    | _ -> invalid_arg "Reports.Sender_side.on_report: not a receiver report"

  let loss_estimate t =
    if Ewma.is_initialised t then Ewma.value t else 0.0
end
