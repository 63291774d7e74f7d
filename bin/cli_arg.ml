(* Option converters that check a numeric range: a value outside it is
   a command-line error (exit 124) naming the range, not an exception
   from inside the run. Shared by the CLIs in this directory. *)

open Cmdliner

let opt kind names default doc =
  Arg.(value & opt kind default & info names ~doc)

let ranged conv expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive =
  ranged Arg.float "a positive finite number" (fun x ->
      x > 0.0 && Float.is_finite x)

let positive_int = ranged Arg.int "a positive integer" (fun n -> n > 0)
let count = ranged Arg.int "a non-negative integer" (fun n -> n >= 0)

let probability =
  ranged Arg.float "a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)

(* A share of a bandwidth whose remainder must stay positive. *)
let share = ranged Arg.float "a share in [0, 1)" (fun s -> s >= 0.0 && s < 1.0)
