type t = {
  losses : float array;
  shares : float array;
  grid : float array array; (* grid.(i).(j) at losses.(i), shares.(j) *)
}

(* Both callers build fresh, sorted, rectangular axes and grids; only
   the consistency range is left to check. *)
let create ~losses ~shares ~grid =
  Array.iter
    (Array.iter (fun c ->
         if c < 0.0 || c > 1.0 +. 1e-9 then
           invalid_arg "Profile: consistency out of [0,1]"))
    grid;
  { losses; shares; grid }

(* index of the cell containing x, and the interpolation weight *)
let locate axis x =
  let n = Array.length axis in
  if x <= axis.(0) then (0, 0.0)
  else if x >= axis.(n - 1) then (n - 2, 1.0)
  else begin
    let rec search lo hi =
      (* invariant: axis.(lo) <= x < axis.(hi) *)
      if hi - lo = 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if x < axis.(mid) then search lo mid else search mid hi
    in
    let i = search 0 (n - 1) in
    (i, (x -. axis.(i)) /. (axis.(i + 1) -. axis.(i)))
  end

let consistency_at t ~loss ~share =
  if Array.length t.losses = 1 && Array.length t.shares = 1 then t.grid.(0).(0)
  else if Array.length t.losses = 1 then begin
    let j, v = locate t.shares share in
    ((1.0 -. v) *. t.grid.(0).(j)) +. (v *. t.grid.(0).(j + 1))
  end
  else if Array.length t.shares = 1 then begin
    let i, u = locate t.losses loss in
    ((1.0 -. u) *. t.grid.(i).(0)) +. (u *. t.grid.(i + 1).(0))
  end
  else begin
    let i, u = locate t.losses loss in
    let j, v = locate t.shares share in
    let g = t.grid in
    ((1.0 -. u) *. (1.0 -. v) *. g.(i).(j))
    +. (u *. (1.0 -. v) *. g.(i + 1).(j))
    +. ((1.0 -. u) *. v *. g.(i).(j + 1))
    +. (u *. v *. g.(i + 1).(j + 1))
  end

let best_share t ~loss ~target =
  let n = Array.length t.shares in
  let rec scan j =
    if j >= n then None
    else if consistency_at t ~loss ~share:t.shares.(j) >= target then
      Some t.shares.(j)
    else scan (j + 1)
  in
  scan 0

let argmax_share t ~loss =
  let best = ref t.shares.(0) in
  let best_c = ref (consistency_at t ~loss ~share:t.shares.(0)) in
  Array.iter
    (fun share ->
      let c = consistency_at t ~loss ~share in
      if c > !best_c then begin
        best_c := c;
        best := share
      end)
    t.shares;
  !best

let analytic_open_loop ~lambda_kbps ~mu_total_kbps ~p_death =
  let losses = Array.init 10 (fun i -> 0.05 *. float_of_int (i + 1)) in
  let shares = Array.init 10 (fun j -> 0.1 *. float_of_int (j + 1)) in
  let grid =
    Array.map
      (fun loss ->
        Array.map
          (fun share ->
            let mu = mu_total_kbps *. share in
            if mu <= 0.0 then 0.0
            else
              let p =
                { Softstate_queueing.Open_loop.lambda = lambda_kbps;
                  mu_ch = mu; p_loss = loss; p_death }
              in
              (* live-set consistency proxy: the class mix s of the
                 product form, discounted by overload when the data
                 channel cannot carry the circulating announcements.
                 (The paper's E[c] = s*rho scores empty systems as
                 zero, which would perversely reward starving the
                 channel; an allocator needs the live-record view.) *)
              let s = Softstate_queueing.Open_loop.consistent_share p in
              let rho = Softstate_queueing.Open_loop.offered_load p in
              s *. Float.min 1.0 (1.0 /. rho))
          shares)
      losses
  in
  create ~losses ~shares ~grid

let of_measurements triples =
  if triples = [] then invalid_arg "Profile.of_measurements: no triples";
  let uniq xs = List.sort_uniq compare xs in
  let losses = uniq (List.map (fun (l, _, _) -> l) triples) in
  let shares = uniq (List.map (fun (_, s, _) -> s) triples) in
  let li = List.mapi (fun i l -> (l, i)) losses in
  let sj = List.mapi (fun j s -> (s, j)) shares in
  let grid =
    Array.make_matrix (List.length losses) (List.length shares) nan
  in
  List.iter
    (fun (l, s, c) ->
      let i = List.assoc l li and j = List.assoc s sj in
      grid.(i).(j) <- c)
    triples;
  Array.iter
    (fun row ->
      Array.iter
        (fun c ->
          if Float.is_nan c then
            invalid_arg "Profile.of_measurements: grid has holes")
        row)
    grid;
  create ~losses:(Array.of_list losses) ~shares:(Array.of_list shares) ~grid

let pp fmt t =
  Format.fprintf fmt "loss\\share";
  Array.iter (fun s -> Format.fprintf fmt "  %6.2f" s) t.shares;
  Format.pp_print_newline fmt ();
  Array.iteri
    (fun i loss ->
      Format.fprintf fmt "%9.3f" loss;
      Array.iter (fun c -> Format.fprintf fmt "  %6.3f" c) t.grid.(i);
      Format.pp_print_newline fmt ())
    t.losses

let save t ~path =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# softstate consistency profile v1\n";
  Buffer.add_string buf "# loss share consistency\n";
  Array.iteri
    (fun i loss ->
      Array.iteri
        (fun j share ->
          Buffer.add_string buf
            (Printf.sprintf "%.17g %.17g %.17g\n" loss share t.grid.(i).(j)))
        t.shares)
    t.losses;
  let oc = open_out path in
  (try Buffer.output_buffer oc buf
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
