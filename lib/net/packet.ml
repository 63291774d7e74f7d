type 'a t = { id : int; size_bits : int; payload : 'a }

let no_id = -1

let stamped ~id ~size_bits payload =
  if size_bits <= 0 then invalid_arg "Packet.make: size must be positive";
  { id; size_bits; payload }

let make ~size_bits payload = stamped ~id:no_id ~size_bits payload
