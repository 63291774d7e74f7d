module Json = Softstate_obs.Json

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let v ~file ~line ~col ~rule message = { file; line; col; rule; message }

(* Strings and ints only: the structural order is the field order. *)
let compare a b =
  Stdlib.compare
    (a.file, a.line, a.col, a.rule, a.message)
    (b.file, b.line, b.col, b.rule, b.message)

let hint t =
  match Rules.find t.rule with Some r -> r.Rules.hint | None -> ""

let to_text t =
  let h = hint t in
  Printf.sprintf "%s:%d:%d: [%s] %s%s" t.file t.line t.col t.rule t.message
    (if h = "" then "" else " (fix: " ^ h ^ ")")

let to_json t =
  Json.obj
    [ ("file", Json.string t.file);
      ("line", Json.int t.line);
      ("col", Json.int t.col);
      ("rule", Json.string t.rule);
      ("message", Json.string t.message);
      ("hint", Json.string (hint t)) ]
