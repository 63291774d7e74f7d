type key = int
type version = int

type state = Idle | Hot | Cold | In_service | Dead

type t = {
  key : key;
  mutable version : version;
  mutable born : float;
  size_bits : int;
  mutable slot : int;
  mutable state : state;
  mutable gen : int;
  mutable matching : int;
}

let make ~key ~now ~size_bits =
  if size_bits <= 0 then invalid_arg "Record.make: size must be positive";
  { key; version = 0; born = now; size_bits; slot = -1; state = Idle;
    gen = 0; matching = 0 }

let touch t ~now =
  t.version <- t.version + 1;
  t.born <- now;
  t.matching <- 0
