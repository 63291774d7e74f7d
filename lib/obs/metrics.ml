type probe = { name : string; mutable read : now:float -> float }

type t = {
  by_name : (string, probe) Hashtbl.t;
  mutable order : probe list; (* newest first *)
}

let create () = { by_name = Hashtbl.create 32; order = [] }

let probe t name read =
  match Hashtbl.find_opt t.by_name name with
  | Some p -> p.read <- read (* re-attach keeps registration order *)
  | None ->
      let p = { name; read } in
      Hashtbl.replace t.by_name name p;
      t.order <- p :: t.order

let snapshot t ~now = List.rev_map (fun p -> (p.name, p.read ~now)) t.order

let get t name ~now =
  Option.map (fun p -> p.read ~now) (Hashtbl.find_opt t.by_name name)

let to_json t ~now =
  Json.obj (List.map (fun (k, v) -> (k, Json.float v)) (snapshot t ~now))
