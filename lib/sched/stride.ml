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
  mutable served : float array;
  global : global;
}

let create () =
  { weight = [||]; backlogged = [||]; pass = [||]; served = [||];
    global = { pass = 0.0 } }

let add_flow t ~weight =
  if weight <= 0.0 then invalid_arg "Stride.add_flow: weight must be positive";
  t.weight <- Array.append t.weight [| weight |];
  t.backlogged <- Array.append t.backlogged [| false |];
  t.pass <- Array.append t.pass [| t.global.pass |];
  t.served <- Array.append t.served [| 0.0 |];
  Array.length t.weight - 1

let check t f =
  if f < 0 || f >= Array.length t.weight then invalid_arg "Stride: unknown flow"

let set_weight t f w =
  if w <= 0.0 then invalid_arg "Stride.set_weight: weight must be positive";
  check t f;
  t.weight.(f) <- w

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

(* Inlined into both entry points, so [size] stays unboxed: a caller
   across a closure or module boundary passes an int to [charge_bits]
   and allocates nothing. *)
let[@inline] advance t f size =
  if size < 0.0 then invalid_arg "Stride.charge: negative size";
  check t f;
  t.pass.(f) <- t.pass.(f) +. (size /. t.weight.(f));
  t.served.(f) <- t.served.(f) +. size;
  t.global.pass <- Float.max t.global.pass t.pass.(f)

let charge t f size = advance t f size
let charge_bits t f size_bits = advance t f (float_of_int size_bits)

let served t f =
  check t f;
  t.served.(f)
