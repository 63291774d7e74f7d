type 'a t = {
  data : 'a option array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
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

let peek t = if t.len = 0 then None else t.data.(t.head)

let iter f t =
  for i = 0 to t.len - 1 do
    match t.data.((t.head + i) mod Array.length t.data) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.head <- 0;
  t.len <- 0
