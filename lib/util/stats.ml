module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean

  let confidence95 t =
    if t.n < 2 then 0.0
    else
      let variance = t.m2 /. float_of_int (t.n - 1) in
      1.96 *. sqrt variance /. sqrt (float_of_int t.n)
end

module Timeweighted = struct
  (* All-float, so every field is stored flat and written without
     boxing. [start] is [nan] until the first update opens the
     observation window. *)
  type t = {
    mutable start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable integral : float;
  }

  let create () =
    { start = nan; last_time = nan; last_value = 0.0; integral = 0.0 }

  let started t = not (Float.is_nan t.start)

  let update t ~now ~value =
    if started t then begin
      if now < t.last_time then
        invalid_arg "Timeweighted.update: time reversed";
      t.integral <- t.integral +. (t.last_value *. (now -. t.last_time))
    end
    else
      (* The observation window opens at the first update; integrating
         an assumed zero before it would bias short runs. *)
      t.start <- now;
    t.last_time <- now;
    t.last_value <- value

  let average t ~now =
    if not (started t) then nan
    else
      let span = now -. t.start in
      if span <= 0.0 then t.last_value
      else (t.integral +. (t.last_value *. (now -. t.last_time))) /. span
end

module Series = struct
  (* Retained points before thinning. *)
  let capacity = 4096

  type t = {
    mutable stride : int;
    mutable seen : int;
    mutable points : (float * float) list; (* newest first *)
    mutable length : int;
  }

  let create () = { stride = 1; seen = 0; points = []; length = 0 }

  let thin t =
    (* Keep every second retained point (oldest-preserving), doubling
       the effective stride. *)
    let rec keep_alternate keep = function
      | [] -> []
      | p :: rest ->
          if keep then p :: keep_alternate false rest
          else keep_alternate true rest
    in
    t.points <- keep_alternate true t.points;
    t.length <- List.length t.points;
    t.stride <- t.stride * 2

  let add t ~time ~value =
    if t.seen mod t.stride = 0 then begin
      t.points <- (time, value) :: t.points;
      t.length <- t.length + 1;
      if t.length > capacity then thin t
    end;
    t.seen <- t.seen + 1

  let to_list t = List.rev t.points
end
