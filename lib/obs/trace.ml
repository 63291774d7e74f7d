type kind =
  | Packet_sent
  | Packet_dropped
  | Packet_delivered
  | Queue_overflow
  | Announce
  | Refresh
  | Summary
  | Nack
  | Query
  | Repair
  | Remove
  | Digest_mismatch
  | Timer_fired
  | Link_down
  | Link_up
  | Node_crash
  | Node_restart
  | Partition
  | Heal
  | Custom of string

let kind_to_string = function
  | Packet_sent -> "packet_sent"
  | Packet_dropped -> "packet_dropped"
  | Packet_delivered -> "packet_delivered"
  | Queue_overflow -> "queue_overflow"
  | Announce -> "announce"
  | Refresh -> "refresh"
  | Summary -> "summary"
  | Nack -> "nack"
  | Query -> "query"
  | Repair -> "repair"
  | Remove -> "remove"
  | Digest_mismatch -> "digest_mismatch"
  | Timer_fired -> "timer_fired"
  | Link_down -> "link_down"
  | Link_up -> "link_up"
  | Node_crash -> "node_crash"
  | Node_restart -> "node_restart"
  | Partition -> "partition"
  | Heal -> "heal"
  | Custom s -> s

let kind_of_string = function
  | "packet_sent" -> Packet_sent
  | "packet_dropped" -> Packet_dropped
  | "packet_delivered" -> Packet_delivered
  | "queue_overflow" -> Queue_overflow
  | "announce" -> Announce
  | "refresh" -> Refresh
  | "summary" -> Summary
  | "nack" -> Nack
  | "query" -> Query
  | "repair" -> Repair
  | "remove" -> Remove
  | "digest_mismatch" -> Digest_mismatch
  | "timer_fired" -> Timer_fired
  | "link_down" -> Link_down
  | "link_up" -> Link_up
  | "node_crash" -> Node_crash
  | "node_restart" -> Node_restart
  | "partition" -> Partition
  | "heal" -> Heal
  | s -> Custom s

type event = {
  time : float;
  src : string;
  kind : kind;
  detail : string;
  value : float;
  key : int;
  packet : int;
  hop : int;
  parent : int;
}

let no_id = -1

let event ~time ~src ?(detail = "") ?(value = 0.0) ?(key = no_id)
    ?(packet = no_id) ?(hop = no_id) ?(parent = no_id) kind =
  { time; src; kind; detail; value; key; packet; hop; parent }

let dummy_event =
  { time = 0.0; src = ""; kind = Custom ""; detail = ""; value = 0.0;
    key = no_id; packet = no_id; hop = no_id; parent = no_id }

type t =
  | Null
  | Memory of { capacity : int; q : event Queue.t; mutable overwritten : int }
  | Ring of {
      buf : event array;
      mutable len : int;
      mutable head : int; (* next write position *)
      mutable seen : int;
    }
  | Writer of { write : event -> unit }
  | Filter of { keep : event -> bool; next : t }
  | Tee of t list

let null = Null
let enabled = function Null -> false | _ -> true

let memory ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.memory: capacity must be positive";
  Memory { capacity; q = Queue.create (); overwritten = 0 }

let recorder () =
  Ring { buf = Array.make 512 dummy_event; len = 0; head = 0; seen = 0 }

let rec emit t ev =
  match t with
  | Null -> ()
  | Memory m ->
      Queue.add ev m.q;
      if Queue.length m.q > m.capacity then begin
        ignore (Queue.pop m.q);
        m.overwritten <- m.overwritten + 1
      end
  | Ring r ->
      let cap = Array.length r.buf in
      r.buf.(r.head) <- ev;
      r.head <- (if r.head + 1 = cap then 0 else r.head + 1);
      if r.len < cap then r.len <- r.len + 1;
      r.seen <- r.seen + 1
  | Writer w -> w.write ev
  | Filter f -> if f.keep ev then emit f.next ev
  | Tee sinks -> List.iter (fun s -> emit s ev) sinks

let recent = function
  | Ring r ->
      let cap = Array.length r.buf in
      let start = (r.head - r.len + cap) mod cap in
      List.init r.len (fun i -> r.buf.((start + i) mod cap))
  | Memory m -> List.of_seq (Queue.to_seq m.q)
  | _ -> invalid_arg "Trace.recent: not a recorder or memory sink"

let seen = function
  | Ring r -> r.seen
  | _ -> invalid_arg "Trace.seen: not a recorder sink"

let events = function
  | Memory m -> List.of_seq (Queue.to_seq m.q)
  | _ -> invalid_arg "Trace.events: not a memory sink"

let overwritten = function
  | Memory m -> m.overwritten
  | _ -> invalid_arg "Trace.overwritten: not a memory sink"

let filter keep next = Filter { keep; next }

let tee sinks = Tee sinks

let to_json ev =
  let base =
    [ ("t", Json.float ev.time); ("src", Json.string ev.src);
      ("kind", Json.string (kind_to_string ev.kind)) ]
  in
  let base =
    if ev.detail = "" then base
    else base @ [ ("detail", Json.string ev.detail) ]
  in
  let base =
    if Float.equal ev.value 0.0 then base
    else base @ [ ("v", Json.float ev.value) ]
  in
  (* Correlation fields carry identity, not measurement: omitted at
     the no-id default so uncorrelated events keep their PR-1 shape. *)
  let opt_id name v base =
    if v = no_id then base else base @ [ (name, Json.int v) ]
  in
  let base =
    base |> opt_id "key" ev.key |> opt_id "pkt" ev.packet
    |> opt_id "hop" ev.hop |> opt_id "par" ev.parent
  in
  Json.obj base

let of_json line =
  match Json.parse_flat line with
  | Error e -> Error e
  | Ok fields -> (
      let num name default =
        match Json.member name fields with
        | Some (Json.Number x) -> Ok x
        | None -> Ok default
        | Some _ -> Error (Printf.sprintf "field %S is not a number" name)
      in
      let str name default =
        match Json.member name fields with
        | Some (Json.String s) -> Ok s
        | None -> Ok default
        | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
      in
      let id name =
        Result.map int_of_float (num name (float_of_int no_id))
      in
      match
        (num "t" nan, str "src" "", str "kind" "", str "detail" "",
         num "v" 0.0)
      with
      | Ok t, Ok src, Ok kind, Ok detail, Ok v -> (
          if Float.is_nan t then Error "missing field \"t\""
          else if kind = "" then Error "missing field \"kind\""
          else
            match (id "key", id "pkt", id "hop", id "par") with
            | Ok key, Ok packet, Ok hop, Ok parent ->
                Ok
                  { time = t; src; kind = kind_of_string kind; detail;
                    value = v; key; packet; hop; parent }
            | Error e, _, _, _
            | _, Error e, _, _
            | _, _, Error e, _
            | _, _, _, Error e -> Error e)
      | Error e, _, _, _, _
      | _, Error e, _, _, _
      | _, _, Error e, _, _
      | _, _, _, Error e, _
      | _, _, _, _, Error e -> Error e)

let csv_header = "time,src,kind,detail,value"

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ev =
  Printf.sprintf "%s,%s,%s,%s,%s" (Json.float ev.time) (csv_field ev.src)
    (kind_to_string ev.kind) (csv_field ev.detail) (Json.float ev.value)

let jsonl_writer write = Writer { write = (fun ev -> write (to_json ev ^ "\n")) }

let csv_writer write =
  let header_done = ref false in
  Writer
    { write =
        (fun ev ->
          if not !header_done then begin
            header_done := true;
            write (csv_header ^ "\n")
          end;
          write (to_csv ev ^ "\n")) }

let count t kind =
  match t with
  | Memory m ->
      Queue.fold (fun acc ev -> if ev.kind = kind then acc + 1 else acc) 0 m.q
  | _ -> invalid_arg "Trace.count: not a memory sink"
