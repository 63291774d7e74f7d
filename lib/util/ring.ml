type 'a t = {
  data : 'a option array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; head = 0; len = 0 }

let length t = t.len
let is_full t = t.len = Array.length t.data

let push t x =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.data in
    t.data.(tail) <- Some x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.data.(t.head) in
    t.data.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.data;
    t.len <- t.len - 1;
    x
  end
