type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type section = { title : string; rows : (string * value) list }

type t = { name : string; sections : section list }

let section title rows = { title; rows }
let make ~name sections = { name; sections }

let int n = Int n
let float x = Float x
let string s = String s
let bool b = Bool b

let of_metrics metrics ~now =
  let rows =
    List.map (fun (name, x) -> (name, Float x)) (Metrics.snapshot metrics ~now)
  in
  { title = "metrics"; rows }

let value_to_string = function
  | Int n -> string_of_int n
  | Float x ->
      if Float.is_nan x then "-"
      else if Float.is_integer x && Float.abs x < 1e15 then
        Printf.sprintf "%.0f" x
      else Printf.sprintf "%.4g" x
  | String s -> s
  | Bool b -> string_of_bool b

let value_to_json = function
  | Int n -> Json.int n
  | Float x -> Json.float x
  | String s -> Json.string s
  | Bool b -> Json.bool b

let to_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (t.name ^ "\n");
  Buffer.add_string buf (String.make (String.length t.name) '=');
  Buffer.add_char buf '\n';
  List.iter
    (fun { title; rows } ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (title ^ "\n");
      Buffer.add_string buf (String.make (String.length title) '-');
      Buffer.add_char buf '\n';
      let width =
        List.fold_left (fun w (k, _) -> Stdlib.max w (String.length k)) 0 rows
      in
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-*s  %s\n" width k (value_to_string v)))
        rows)
    t.sections;
  Buffer.contents buf

let to_json t =
  Json.obj
    (("name", Json.string t.name)
    :: List.map
         (fun { title; rows } ->
           ( title,
             Json.obj (List.map (fun (k, v) -> (k, value_to_json v)) rows) ))
         t.sections)

let render format t =
  match format with `Table -> to_table t | `Json -> to_json t ^ "\n"
