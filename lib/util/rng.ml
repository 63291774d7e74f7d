(* SplitMix64 state: 8 bytes read and written through the unboxed
   64-bit bytes primitives. A [mutable int64] field would box every
   state update (3 words), and a non-inlined [bits64] would box its
   result too; with the state in bytes and the draw inlined, a
   [bernoulli] or in-module [float] draw allocates nothing. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finaliser: xor-shift multiply chain from the reference
   implementation. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let g = Bytes.create 8 in
  set64u g 0 state;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 g =
  let state = Int64.add (get64u g 0) golden_gamma in
  set64u g 0 state;
  mix64 state

let split g = of_state (mix64 (bits64 g))

(* Use the top 53 bits for a uniform double in [0,1). *)
let[@inline] float g =
  Int64.to_float (Int64.shift_right_logical (bits64 g) 11)
  *. (1.0 /. 9007199254740992.0)

(* Rejection sampling on 62 usable non-negative bits. [int] inlines
   the first draw, which is rejected with probability below n / 2^62;
   this out-of-line loop redraws. *)
let rec draw_below g n =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  let v = r mod n in
  if r - v > max_int - n + 1 then draw_below g n else v

let[@inline] int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n land (n - 1) = 0 then
    (* power of two: mask is exact *)
    Int64.to_int (bits64 g) land (n - 1)
  else begin
    let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
    let v = r mod n in
    if r - v > max_int - n + 1 then draw_below g n else v
  end

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g < p
