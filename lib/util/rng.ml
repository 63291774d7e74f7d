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

let[@inline] advance g k =
  if k < 0 then invalid_arg "Rng.advance: negative draw count";
  set64u g 0 (Int64.add (get64u g 0) (Int64.mul (Int64.of_int k) golden_gamma))

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

(* ------------------------------------------------------------------ *)
(* No-rejection certificate. A non-power-of-two [int g n] rejects its
   62-bit draw r only if r > max_int - n + 1, so for every n <= bound
   only the 4 (bound - 1) outputs at or above 2^64 - 4 (bound - 1) can
   be rejected. The finaliser is a bijection (xor-shifts by >= 22 bits
   and odd multiplies), so each such output comes from exactly one
   state, and the j-th upcoming draw reads state s + j gamma: the
   smallest (s_bad - s) / gamma mod 2^64 over those outputs is where
   the first possible rejection sits. *)

(* Newton's iteration for an inverse mod 2^64: an odd c is its own
   inverse to 3 bits, and each step doubles the correct bits. *)
let inverse_odd c =
  let x = ref c in
  for _ = 1 to 5 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul c !x))
  done;
  !x

let inv_m1 = inverse_odd 0xBF58476D1CE4E5B9L
let inv_m2 = inverse_odd 0x94D049BB133111EBL
let inv_gamma = inverse_odd golden_gamma

(* inverse of z lxor (z lsr k) for k >= 22 *)
let[@inline] unshift z k =
  Int64.(logxor z (logxor (shift_right_logical z k) (shift_right_logical z (2 * k))))

let[@inline] unmix64 x =
  let z = Int64.mul (unshift x 31) inv_m2 in
  let z = Int64.mul (unshift z 27) inv_m1 in
  unshift z 30

let clean_draws g ~bound =
  if bound < 1 || bound > 1 lsl 30 then
    invalid_arg "Rng.clean_draws: bound outside [1, 2^30]";
  let s = get64u g 0 in
  (* unsigned minimum, kept as its signed image (x - min_int) so that
     plain [<] compares *)
  let best = ref Int64.max_int in
  for i = 0 to (4 * (bound - 1)) - 1 do
    (* the i-th output down from all ones is the j-th draw from now;
       the draws before it number j - 1, and j = 0 (the current
       state, a full period away) wraps to 2^64 - 1 *)
    let bad = Int64.lognot (Int64.of_int i) in
    let j = Int64.mul (Int64.sub (unmix64 bad) s) inv_gamma in
    let before = Int64.sub (Int64.sub j 1L) Int64.min_int in
    if before < !best then best := before
  done;
  let before = Int64.add !best Int64.min_int in
  if before < 0L || before > Int64.of_int max_int then max_int
  else Int64.to_int before
