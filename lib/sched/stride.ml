type flow = int

(* Per-flow state in parallel arrays indexed by flow, so the float
   columns are flat and their writes allocate nothing; the global pass
   sits in an all-float record for the same reason. Flows are added
   at set-up, one array append each. *)
type global = { mutable pass : float }

type t = {
  mutable weight : float array;
  mutable backlogged : bool array;
  mutable pass : float array;
  global : global;
}

let create () =
  { weight = [||]; backlogged = [||]; pass = [||]; global = { pass = 0.0 } }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Stride.add_flow: weight must be positive";
  t.weight <- Array.append t.weight [| weight |];
  t.backlogged <- Array.append t.backlogged [| false |];
  t.pass <- Array.append t.pass [| t.global.pass |];
  Array.length t.weight - 1

let check t f =
  if f < 0 || f >= Array.length t.weight then invalid_arg "Stride: unknown flow"

let set_backlogged t f b =
  check t f;
  if b && not t.backlogged.(f) then
    (* A flow waking from idleness joins at the current global pass so
       idleness does not accumulate credit. *)
    t.pass.(f) <- Float.max t.pass.(f) t.global.pass;
  t.backlogged.(f) <- b

let select t =
  let best = ref (-1) in
  for i = 0 to Array.length t.pass - 1 do
    if t.backlogged.(i) && (!best < 0 || t.pass.(i) < t.pass.(!best)) then
      best := i
  done;
  if !best < 0 then None else Some !best

(* [size_bits] is converted here, inside the callee, so the float
   stays unboxed: a caller across a closure or module boundary passes
   an int and allocates nothing. *)
let charge_bits t f size_bits =
  if size_bits < 0 then invalid_arg "Stride.charge_bits: negative size";
  check t f;
  t.pass.(f) <- t.pass.(f) +. (float_of_int size_bits /. t.weight.(f));
  t.global.pass <- Float.max t.global.pass t.pass.(f)
