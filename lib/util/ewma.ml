type t = {
  alpha : float;
  mutable avg : float;
  mutable initialised : bool;
}

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then
    invalid_arg "Ewma.create: alpha must be in (0,1]";
  { alpha; avg = 0.0; initialised = false }

let add t x =
  if t.initialised then t.avg <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.avg)
  else begin
    t.avg <- x;
    t.initialised <- true
  end

let value t = if t.initialised then t.avg else nan
let is_initialised t = t.initialised

module Timed = struct
  type t = {
    half_life : float;
    mutable avg : float;
    mutable last : float;
    mutable initialised : bool;
  }

  let create ~half_life =
    if half_life <= 0.0 then
      invalid_arg "Ewma.Timed.create: half_life must be positive";
    { half_life; avg = 0.0; last = 0.0; initialised = false }

  let add t ~now x =
    if t.initialised then begin
      if now < t.last then invalid_arg "Ewma.Timed.add: time reversed";
      let dt = now -. t.last in
      let decay = 0.5 ** (dt /. t.half_life) in
      t.avg <- (decay *. t.avg) +. ((1.0 -. decay) *. x)
    end
    else begin
      t.avg <- x;
      t.initialised <- true
    end;
    t.last <- now

  let value t = if t.initialised then t.avg else nan
end
