module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Dist = Softstate_util.Dist

type action =
  | Cable_down of int
  | Cable_up of int
  | Node_crash of int
  | Node_restart of int
  | Partition of int list
  | Heal

type event = { at : float; action : action }

let apply topo = function
  | Cable_down c -> ignore (Topology.set_cable topo c ~up:false)
  | Cable_up c -> ignore (Topology.set_cable topo c ~up:true)
  | Node_crash n -> ignore (Topology.crash_node topo n)
  | Node_restart n -> ignore (Topology.restart_node topo n)
  | Partition group -> ignore (Topology.partition topo ~group)
  | Heal -> ignore (Topology.heal topo)

let install topo events =
  let engine = Topology.engine topo in
  (* Stable sort keeps list order among equal-time events, and the
     engine itself is FIFO at equal timestamps. *)
  let events = List.stable_sort (fun a b -> compare a.at b.at) events in
  List.iter
    (fun ev ->
      Engine.schedule_at engine ~time:ev.at (fun _ -> apply topo ev.action))
    events

(* ------------------------------------------------------------------ *)
(* Random schedules: all draws happen here, in arrival order, so the
   schedule is a pure function of (rng state, topology shape). *)

let poisson_windows ~rng ~rate_per_s ~mean_downtime ~until ~pick ~down ~up =
  if rate_per_s <= 0.0 then invalid_arg "Fault: rate must be positive";
  if mean_downtime <= 0.0 then invalid_arg "Fault: mean downtime must be positive";
  let recovery_rate = 1.0 /. mean_downtime in
  let acc = ref [] in
  let t = ref (Dist.exponential rng ~rate:rate_per_s) in
  while !t < until do
    let target = pick () in
    let dt = Dist.exponential rng ~rate:recovery_rate in
    acc := { at = !t +. dt; action = up target }
           :: { at = !t; action = down target } :: !acc;
    t := !t +. Dist.exponential rng ~rate:rate_per_s
  done;
  List.rev !acc

let flaps ~rng ~rate_per_s ~mean_downtime ~until topo =
  let cables = Topology.cable_count topo in
  if cables = 0 then []
  else
    poisson_windows ~rng ~rate_per_s ~mean_downtime ~until
      ~pick:(fun () -> Rng.int rng cables)
      ~down:(fun c -> Cable_down c)
      ~up:(fun c -> Cable_up c)

let churn ~rng ~rate_per_s ~mean_downtime ~until topo =
  let targets =
    Array.of_list (List.filter (fun n -> n <> 0) (Topology.leaves topo))
  in
  if Array.length targets = 0 then []
  else
    poisson_windows ~rng ~rate_per_s ~mean_downtime ~until
      ~pick:(fun () -> targets.(Rng.int rng (Array.length targets)))
      ~down:(fun n -> Node_crash n)
      ~up:(fun n -> Node_restart n)

(* A correlated burst: [count] cable outages all landing uniformly
   inside one window, each with its own exponential downtime. Cables
   are picked with replacement (like flaps), so a storm can hit the
   same cable twice — overlapping windows are tolerated by the
   topology layer. *)
let storm ~rng ~count ~mean_downtime ~from_ ~till topo =
  let cables = Topology.cable_count topo in
  if cables = 0 then []
  else begin
    let recovery_rate = 1.0 /. mean_downtime in
    let acc = ref [] in
    for _ = 1 to count do
      let at = Dist.uniform rng ~lo:from_ ~hi:till in
      let cable = Rng.int rng cables in
      let dt = Dist.exponential rng ~rate:recovery_rate in
      acc := { at = at +. dt; action = Cable_up cable }
             :: { at; action = Cable_down cable } :: !acc
    done;
    List.rev !acc
  end

(* Sustained receiver churn on a fixed cadence: every [period]
   seconds, crash a distinct random [fraction] of the leaf receivers
   (never node 0) and restart them [downtime] seconds later. Victims
   within one wave are distinct (partial Fisher–Yates); successive
   waves re-draw independently. *)
let churn_waves ~rng ~period ~fraction ~downtime ~until topo =
  let targets =
    Array.of_list (List.filter (fun n -> n <> 0) (Topology.leaves topo))
  in
  let m = Array.length targets in
  if m = 0 then []
  else begin
    let k = min m (max 1 (int_of_float (ceil (fraction *. float_of_int m)))) in
    let acc = ref [] in
    let t = ref period in
    while !t < until do
      let pool = Array.copy targets in
      for i = 0 to k - 1 do
        let j = i + Rng.int rng (m - i) in
        let tmp = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- tmp;
        let victim = pool.(i) in
        acc := { at = !t +. downtime; action = Node_restart victim }
               :: { at = !t; action = Node_crash victim } :: !acc
      done;
      t := !t +. period
    done;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* Textual specs *)

type spec =
  | Cable_window of { cable : int; from_ : float; till : float }
  | Node_window of { node : int; from_ : float; till : float }
  | Partition_window of { from_ : float; till : float }
  | Flap_process of { rate_per_s : float; mean_downtime : float }
  | Churn_process of { rate_per_s : float; mean_downtime : float }
  | Storm of { count : int; mean_downtime : float; from_ : float; till : float }
  | Churn_wave of { period : float; fraction : float; downtime : float }

let spec_to_string = function
  | Cable_window { cable; from_; till } ->
      Printf.sprintf "cable:%d@%g-%g" cable from_ till
  | Node_window { node; from_; till } ->
      Printf.sprintf "node:%d@%g-%g" node from_ till
  | Partition_window { from_; till } ->
      Printf.sprintf "partition@%g-%g" from_ till
  | Flap_process { rate_per_s; mean_downtime } ->
      Printf.sprintf "flap:%g:%g" rate_per_s mean_downtime
  | Churn_process { rate_per_s; mean_downtime } ->
      Printf.sprintf "churn:%g:%g" rate_per_s mean_downtime
  | Storm { count; mean_downtime; from_; till } ->
      Printf.sprintf "storm:%d:%g@%g-%g" count mean_downtime from_ till
  | Churn_wave { period; fraction; downtime } ->
      Printf.sprintf "churnwave:%g:%g:%g" period fraction downtime

let parse_window s =
  (* "T1-T2" with both bounds non-negative and ordered *)
  match String.index_opt s '-' with
  | None -> Error (Printf.sprintf "bad window %S (want T1-T2)" s)
  | Some i -> (
      let a = String.sub s 0 i in
      let b = String.sub s (i + 1) (String.length s - i - 1) in
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some from_, Some till when 0.0 <= from_ && from_ < till ->
          Ok (from_, till)
      | Some _, Some _ -> Error (Printf.sprintf "bad window %S (want 0 <= T1 < T2)" s)
      | _ -> Error (Printf.sprintf "bad window %S (want T1-T2)" s))

let parse_process name s =
  match String.split_on_char ':' s with
  | [ r; m ] -> (
      match (float_of_string_opt r, float_of_string_opt m) with
      | Some rate_per_s, Some mean_downtime
        when rate_per_s > 0.0 && mean_downtime > 0.0 ->
          Ok (rate_per_s, mean_downtime)
      | _ -> Error (Printf.sprintf "bad %s spec %S (want RATE:MEAN > 0)" name s))
  | _ -> Error (Printf.sprintf "bad %s spec %S (want %s:RATE:MEAN)" name s name)

let spec_of_string s =
  let ( let* ) = Result.bind in
  let cut_prefix p =
    if String.length s >= String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match cut_prefix "cable:" with
  | Some rest -> (
      match String.index_opt rest '@' with
      | None -> Error (Printf.sprintf "bad spec %S (want cable:I@T1-T2)" s)
      | Some i -> (
          match int_of_string_opt (String.sub rest 0 i) with
          | None -> Error (Printf.sprintf "bad cable id in %S" s)
          | Some cable ->
              let* from_, till =
                parse_window
                  (String.sub rest (i + 1) (String.length rest - i - 1))
              in
              Ok (Cable_window { cable; from_; till })))
  | None -> (
      match cut_prefix "node:" with
      | Some rest -> (
          match String.index_opt rest '@' with
          | None -> Error (Printf.sprintf "bad spec %S (want node:I@T1-T2)" s)
          | Some i -> (
              match int_of_string_opt (String.sub rest 0 i) with
              | None -> Error (Printf.sprintf "bad node id in %S" s)
              | Some node ->
                  let* from_, till =
                    parse_window
                      (String.sub rest (i + 1) (String.length rest - i - 1))
                  in
                  Ok (Node_window { node; from_; till })))
      | None -> (
          match cut_prefix "partition@" with
          | Some rest ->
              let* from_, till = parse_window rest in
              Ok (Partition_window { from_; till })
          | None -> (
              match cut_prefix "flap:" with
              | Some rest ->
                  let* rate_per_s, mean_downtime = parse_process "flap" rest in
                  Ok (Flap_process { rate_per_s; mean_downtime })
              | None -> (
                  match cut_prefix "churn:" with
                  | Some rest ->
                      let* rate_per_s, mean_downtime =
                        parse_process "churn" rest
                      in
                      Ok (Churn_process { rate_per_s; mean_downtime })
                  | None -> (
                      match cut_prefix "storm:" with
                      | Some rest -> (
                          (* storm:COUNT:MEAN@T1-T2 *)
                          match String.index_opt rest '@' with
                          | None ->
                              Error
                                (Printf.sprintf
                                   "bad spec %S (want storm:COUNT:MEAN@T1-T2)" s)
                          | Some i -> (
                              let head = String.sub rest 0 i in
                              let tail =
                                String.sub rest (i + 1)
                                  (String.length rest - i - 1)
                              in
                              match String.split_on_char ':' head with
                              | [ c; m ] -> (
                                  match
                                    (int_of_string_opt c, float_of_string_opt m)
                                  with
                                  | Some count, Some mean_downtime
                                    when count > 0 && mean_downtime > 0.0 ->
                                      let* from_, till = parse_window tail in
                                      Ok
                                        (Storm
                                           { count; mean_downtime; from_; till })
                                  | _ ->
                                      Error
                                        (Printf.sprintf
                                           "bad storm spec %S (want COUNT:MEAN \
                                            > 0)"
                                           s))
                              | _ ->
                                  Error
                                    (Printf.sprintf
                                       "bad spec %S (want \
                                        storm:COUNT:MEAN@T1-T2)"
                                       s)))
                      | None -> (
                          match cut_prefix "churnwave:" with
                          | Some rest -> (
                              match String.split_on_char ':' rest with
                              | [ p; f; d ] -> (
                                  match
                                    ( float_of_string_opt p,
                                      float_of_string_opt f,
                                      float_of_string_opt d )
                                  with
                                  | Some period, Some fraction, Some downtime
                                    when period > 0.0 && fraction > 0.0
                                         && fraction <= 1.0 && downtime > 0.0 ->
                                      Ok (Churn_wave { period; fraction; downtime })
                                  | _ ->
                                      Error
                                        (Printf.sprintf
                                           "bad churnwave spec %S (want PERIOD \
                                            > 0, FRAC in (0,1], DOWN > 0)"
                                           s))
                              | _ ->
                                  Error
                                    (Printf.sprintf
                                       "bad spec %S (want \
                                        churnwave:PERIOD:FRAC:DOWN)"
                                       s))
                          | None ->
                              Error (Printf.sprintf "unknown fault spec %S" s)))))))

let specs_of_string s =
  let items =
    List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok specs -> (
          match spec_of_string (String.trim item) with
          | Ok spec -> Ok (spec :: specs)
          | Error _ as e -> e))
    (Ok []) items
  |> Result.map List.rev

let compile ~rng ~until topo specs =
  let n = Topology.node_count topo in
  List.concat_map
    (function
      | Cable_window { cable; from_; till } ->
          if cable < 0 || cable >= Topology.cable_count topo then
            invalid_arg (Printf.sprintf "Fault.compile: no cable %d" cable);
          [ { at = from_; action = Cable_down cable };
            { at = till; action = Cable_up cable } ]
      | Node_window { node; from_; till } ->
          if node < 0 || node >= n then
            invalid_arg (Printf.sprintf "Fault.compile: no node %d" node);
          [ { at = from_; action = Node_crash node };
            { at = till; action = Node_restart node } ]
      | Partition_window { from_; till } ->
          let group =
            List.filter (fun i -> i >= n / 2) (List.init n Fun.id)
          in
          [ { at = from_; action = Partition group };
            { at = till; action = Heal } ]
      | Flap_process { rate_per_s; mean_downtime } ->
          flaps ~rng ~rate_per_s ~mean_downtime ~until topo
      | Churn_process { rate_per_s; mean_downtime } ->
          churn ~rng ~rate_per_s ~mean_downtime ~until topo
      | Storm { count; mean_downtime; from_; till } ->
          storm ~rng ~count ~mean_downtime ~from_ ~till topo
      | Churn_wave { period; fraction; downtime } ->
          churn_waves ~rng ~period ~fraction ~downtime ~until topo)
    specs
