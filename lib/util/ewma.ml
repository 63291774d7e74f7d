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
