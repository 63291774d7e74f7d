(* Domain-parallel replication fan-out.

   Replications of a simulation are embarrassingly parallel: each one
   owns its engine, RNG stream and result record, so the only shared
   state is the results array — and each worker writes a disjoint,
   statically assigned set of slots (index i belongs to worker
   [i mod jobs]), which keeps the program data-race free without
   locks.

   Determinism: results are keyed by replication index, never by
   completion order, so merging them in index order yields the same
   answer for any job count — including 1. The per-domain stats handed
   to [report] are wall-clock observations and vary run to run; they
   are strictly out-of-band (nothing derived from them flows into the
   results), so the determinism contract is untouched. *)

module Stats = struct
  type mode = Sequential | Domains

  let mode_name = function Sequential -> "sequential" | Domains -> "domains"

  type domain = { index : int; tasks : int; wall_s : float }
  type t = { jobs : int; mode : mode; domains : domain array }

  let max_wall_s t =
    Array.fold_left (fun acc d -> Float.max acc d.wall_s) 0.0 t.domains

  (* Ratio of summed per-domain work to the slowest domain: [jobs]
     when perfectly balanced, tending to 1.0 when one domain carries
     the fan-out (the signature of a skewed or serialised sweep). *)
  let balance t =
    let slowest = max_wall_s t in
    if slowest <= 0.0 then 1.0
    else
      Array.fold_left (fun acc d -> acc +. d.wall_s) 0.0 t.domains /. slowest
end

let recommended_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs = if jobs <= 0 then recommended_jobs () else jobs

(* lint: allow D002 per-domain wall-clock accounting; reported out-of-band, never feeds simulation state *)
let wall () = Unix.gettimeofday ()

let map ?(jobs = 1) ?report n f =
  if n < 0 then invalid_arg "Parallel.map: negative count";
  let jobs = min (resolve_jobs jobs) (max 1 n) in
  (* A single-domain box gains nothing from spawning helpers — they
     timeshare one core and the spawn/join overhead makes jobs > 1
     strictly slower than sequential (the sweep_speedup 0.43
     regression). Results are index-keyed either way, so falling back
     cannot change any output, only the wall clock. *)
  if jobs = 1 || n <= 1 || recommended_jobs () = 1 then begin
    let t0 = wall () in
    let results = Array.init n f in
    (match report with
    | Some k ->
        k { Stats.jobs = 1;
            mode = Stats.Sequential;
            domains = [| { Stats.index = 0; tasks = n; wall_s = wall () -. t0 } |] }
    | None -> ());
    results
  end
  else begin
    let results = Array.make n None in
    let stats = Array.make jobs { Stats.index = 0; tasks = 0; wall_s = 0.0 } in
    let worker j () =
      let t0 = wall () in
      let count = ref 0 in
      let i = ref j in
      while !i < n do
        results.(!i) <- Some (f !i);
        incr count;
        i := !i + jobs
      done;
      stats.(j) <- { Stats.index = j; tasks = !count; wall_s = wall () -. t0 }
    in
    let helpers =
      Array.init (jobs - 1) (fun j -> Domain.spawn (worker (j + 1)))
    in
    (* run worker 0 on this domain; delay its exception so helpers are
       always joined *)
    let here = (try worker 0 (); None with e -> Some e) in
    Array.iter Domain.join helpers;
    (match here with Some e -> raise e | None -> ());
    (match report with
    | Some k -> k { Stats.jobs; mode = Stats.Domains; domains = stats }
    | None -> ());
    Array.map
      (function Some x -> x | None -> assert false (* every slot filled *))
      results
  end

let map_list ?jobs items f =
  let arr = Array.of_list items in
  Array.to_list (map ?jobs (Array.length arr) (fun i -> f arr.(i)))
