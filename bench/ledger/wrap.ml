(* A transport that times every call crossing the protocol/network
   boundary, in both directions, without touching either side.

   Protocols hand the transport closures (fetch, on_served, deliver)
   and call back into the handles it returns (kick, send). Wrapping
   both at construction makes each crossing a span: the wrappers are
   built once per medium, so a call allocates nothing beyond what the
   wrapped closure itself allocates. *)

module Net = Softstate_net
module T = Net.Transport

type kinds = {
  fetch : int;    (* protocol: pick the next packet to serve *)
  served : int;   (* protocol: a packet finished service *)
  deliver : int;  (* protocol: data packet reached a receiver *)
  inbox : int;    (* protocol: feedback packet reached the sender *)
  kick : int;     (* network: protocol wakes an idle server *)
  send : int;     (* network: protocol enqueues a feedback packet *)
}

let transport sp k (inner : T.t) : T.t =
  let fetch_span fetch () =
    Span.enter sp k.fetch;
    let r = fetch () in
    (match r with Some _ -> Span.hit sp k.fetch | None -> ());
    Span.leave sp;
    r
  in
  let deliver_span kind deliver ~now x =
    Span.enter sp kind;
    deliver ~now x;
    Span.leave sp
  in
  let served_span on_served ~now p =
    Span.enter sp k.served;
    on_served ~now p;
    Span.leave sp
  in
  let kick_span kick () =
    Span.enter sp k.kick;
    kick ();
    Span.leave sp
  in
  { T.name = inner.T.name ^ "+spans";
    unicast =
      (fun ~rate_bps ?delay ?loss ?on_served ~label ~rng ~fetch ~deliver () ->
        let u =
          inner.T.unicast ~rate_bps ?delay ?loss
            ?on_served:(Option.map served_span on_served)
            ~label ~rng ~fetch:(fetch_span fetch)
            ~deliver:(deliver_span k.deliver deliver) ()
        in
        { u with T.u_kick = kick_span u.T.u_kick });
    outbox =
      (fun ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng ~deliver () ->
        let o =
          inner.T.outbox ~rate_bps ?delay ?loss ?queue_capacity ~label ~rng
            ~deliver:(deliver_span k.inbox deliver) ()
        in
        let send packet =
          Span.enter sp k.send;
          let accepted = o.T.o_send packet in
          if accepted then Span.hit sp k.send;
          Span.leave sp;
          accepted
        in
        { o with T.o_send = send });
    fanout =
      (fun ~rate_bps ?delay ?on_served ~label ~rng ~fetch () ->
        let f =
          inner.T.fanout ~rate_bps ?delay
            ?on_served:(Option.map served_span on_served)
            ~label ~rng ~fetch:(fetch_span fetch) ()
        in
        { f with
          T.f_kick = kick_span f.T.f_kick;
          f_subscribe =
            (fun ~loss deliver ->
              f.T.f_subscribe ~loss (deliver_span k.deliver deliver)) }) }
