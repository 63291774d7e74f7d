module Trace = Softstate_obs.Trace
module SMap = Map.Make (String)

(* Maps, not Hashtbl: every serialization and report below iterates
   the table, and Map iteration order is the key order — deterministic
   by construction, nothing for the D003 lint to worry about. *)
type t = {
  mutable features : int SMap.t;
  mutable events : int SMap.t;
  mutable branches : int SMap.t;
}

let create () =
  { features = SMap.empty; events = SMap.empty; branches = SMap.empty }

let bump m k = SMap.update k (function None -> Some 1 | Some n -> Some (n + 1)) m

let note_feature t k = t.features <- bump t.features k
let note_event t k = t.events <- bump t.events k
let note_branch t k = t.branches <- bump t.branches k

let note_scenario t scenario =
  List.iter (note_feature t) (Scenario.features scenario)

let note_outcome t (outcome : Scenario.outcome) =
  List.iter
    (fun ev -> note_event t (Trace.kind_to_string ev.Trace.kind))
    outcome.Scenario.events

let seen m = List.map fst (SMap.bindings m)
let seen_features t = seen t.features
let seen_events t = seen t.events
let seen_branches t = seen t.branches

let feature_count t = SMap.cardinal t.features

(* The catalogue of trace-event kinds a fuzz run can put in a memory
   trace (everything but Custom, whose payload is open-ended). *)
let event_catalogue =
  List.map Trace.kind_to_string
    [ Trace.Packet_sent; Trace.Packet_dropped; Trace.Packet_delivered;
      Trace.Queue_overflow; Trace.Announce; Trace.Refresh; Trace.Summary;
      Trace.Nack; Trace.Query; Trace.Repair; Trace.Remove;
      Trace.Digest_mismatch; Trace.Timer_fired; Trace.Link_down;
      Trace.Link_up; Trace.Node_crash; Trace.Node_restart;
      Trace.Partition; Trace.Heal ]
  |> List.sort_uniq String.compare

let fraction ~seen ~catalogue =
  match List.length catalogue with
  | 0 -> 1.0
  | n ->
      let hit = List.filter (fun k -> List.mem k seen) catalogue in
      float_of_int (List.length hit) /. float_of_int n

let feature_fraction t =
  fraction ~seen:(seen_features t) ~catalogue:Scenario.feature_catalogue

let unseen ~seen ~catalogue =
  List.filter (fun k -> not (List.mem k seen)) catalogue

let unseen_features t =
  unseen ~seen:(seen_features t) ~catalogue:Scenario.feature_catalogue

(* ------------------------------------------------------------------ *)
(* Serialization: one "dim<TAB>name<TAB>count" line per entry, sorted
   by (dim, name) — byte-identical for equal coverage maps. *)

let dims = [ ("feature", `F); ("event", `E); ("branch", `B) ]

let to_string t =
  let lines dim m =
    List.map
      (fun (k, n) -> Printf.sprintf "%s\t%s\t%d" dim k n)
      (SMap.bindings m)
  in
  String.concat "\n"
    (lines "branch" t.branches @ lines "event" t.events
    @ lines "feature" t.features)
  ^ "\n"

let of_string str =
  let t = create () in
  let err = ref None in
  String.split_on_char '\n' str
  |> List.iteri (fun lineno line ->
         if !err = None && not (String.equal (String.trim line) "") then
           match String.split_on_char '\t' line with
           | [ dim; key; count ] -> (
               match (List.assoc_opt dim dims, int_of_string_opt count) with
               | Some which, Some n when n > 0 ->
                   let add m = SMap.add key n m in
                   (match which with
                   | `F -> t.features <- add t.features
                   | `E -> t.events <- add t.events
                   | `B -> t.branches <- add t.branches)
               | _ ->
                   err :=
                     Some
                       (Printf.sprintf "line %d: bad dim or count in %S"
                          (lineno + 1) line))
           | _ ->
               err :=
                 Some
                   (Printf.sprintf "line %d: want dim<TAB>name<TAB>count, got %S"
                      (lineno + 1) line));
  match !err with Some e -> Error e | None -> Ok t

(* ------------------------------------------------------------------ *)
(* Report *)

let report t =
  let buf = Buffer.create 1024 in
  let section title m catalogue =
    let seen_keys = seen m in
    let total = List.length catalogue in
    let hit =
      List.length (List.filter (fun k -> List.mem k seen_keys) catalogue)
    in
    if total > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%-10s %3d / %-3d (%.2f)\n" title hit total
           (float_of_int hit /. float_of_int total))
    else
      Buffer.add_string buf
        (Printf.sprintf "%-10s %3d buckets\n" title (SMap.cardinal m));
    SMap.iter
      (fun k n -> Buffer.add_string buf (Printf.sprintf "  %-28s %d\n" k n))
      m;
    let missing = unseen ~seen:seen_keys ~catalogue in
    List.iter
      (fun k -> Buffer.add_string buf (Printf.sprintf "  %-28s MISSING\n" k))
      missing
  in
  section "features" t.features Scenario.feature_catalogue;
  section "events" t.events event_catalogue;
  section "branches" t.branches [];
  Buffer.contents buf
