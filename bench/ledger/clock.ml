(* Host monotonic time in integer nanoseconds.

   [Monotonic_clock.now] is bechamel's noalloc CLOCK_MONOTONIC stub with
   an unboxed int64 result; converting it to a tagged int straight away
   keeps a reading free of heap allocation, which the span tracer's
   zero-words-per-span contract depends on (checked at calibration). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9
