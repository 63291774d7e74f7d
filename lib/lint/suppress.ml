(* [d_test] is the test a U001, U002 or U003 suppression names, [""] for
   other rules. *)
type directive = { d_line : int; d_col : int; d_rule : string; d_test : string }
type t = directive list

let empty = []

let allows t ~line ~rule =
  List.exists
    (fun d -> d.d_rule = rule && (d.d_line = line || d.d_line + 1 = line))
    t

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

(* The rules whose reasons name a test. *)
let names_test rule = List.mem rule [ "U001"; "U002"; "U003" ]

(* The test such a reason names: the reason must read exactly
   (a) used by test "NAME". *)
let reason_test reason =
  try Some (Scanf.sscanf reason "(a) used by test %S%!" Fun.id)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* The comment text after the "lint:" marker. One directive may name
   several rules, comma-separated: (* lint: allow R001,A002 reason *).
   Every named rule must be known, or the whole directive is an S001
   finding and suppresses nothing. A directive naming a U rule
   must give its reason as (a) used by test "NAME": an export, label
   or constructor is kept only for a named test. *)
let parse_directive ~file ~line ~col body =
  let bad msg = Error (Finding.v ~file ~line ~col ~rule:"S001" msg) in
  let split_rules token =
    String.split_on_char ',' token |> List.filter (fun r -> r <> "")
  in
  match words body with
  | "allow" :: rules :: (_ :: _ as reason) -> (
      let ids = split_rules rules in
      let directives test =
        Ok
          (List.map
             (fun r ->
               { d_line = line; d_col = col; d_rule = r;
                 d_test = (if names_test r then test else "") })
             ids)
      in
      match List.filter (fun r -> not (Rules.is_known r)) ids with
      | [] when List.exists names_test ids -> (
          match reason_test (String.concat " " reason) with
          | Some test -> directives test
          | None ->
              bad
                (List.find names_test ids
               ^ " suppression reason must read (a) used by test \"NAME\""))
      | [] when ids <> [] -> directives ""
      | unknown :: _ ->
          bad (Printf.sprintf "suppression names unknown rule %s" unknown)
      | [] -> bad "suppression names no rule")
  | [ "allow"; rule ] ->
      bad
        (Printf.sprintf
           "suppression of %s gives no reason; write (* lint: allow %s \
            <why> *)"
           rule rule)
  | [ "allow" ] -> bad "suppression names no rule"
  | _ ->
      bad "unrecognised lint directive; expected 'lint: allow RULE reason'"

let strip_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* The lexer's COMMENT payload keeps the delimiters on some compiler
   versions; tolerate both. *)
let comment_body text =
  let text = String.trim text in
  let text =
    match strip_prefix ~prefix:"(*" text with Some t -> t | None -> text
  in
  let text =
    if
      String.length text >= 2
      && String.sub text (String.length text - 2) 2 = "*)"
    then String.sub text 0 (String.length text - 2)
    else text
  in
  String.trim text

let scan ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Lexer.init ();
  Lexer.handle_docstrings := false;
  Lexer.print_warnings := false;
  let dirs = ref [] and finds = ref [] in
  (try
     let rec loop () =
       match Lexer.token_with_comments lexbuf with
       | Parser.EOF -> ()
       | Parser.COMMENT (text, loc) ->
           (match strip_prefix ~prefix:"lint:" (comment_body text) with
           | None -> ()
           | Some rest ->
               let p = loc.Location.loc_start in
               let line = p.Lexing.pos_lnum
               and col = p.Lexing.pos_cnum - p.Lexing.pos_bol in
               (match parse_directive ~file ~line ~col (String.trim rest) with
               | Ok ds -> dirs := ds @ !dirs
               | Error f -> finds := f :: !finds));
           loop ()
       | _ -> loop ()
     in
     loop ()
   with _ -> ());
  (!dirs, List.rev !finds)

(* Test names a test file defines: the first positional string of a
   [test_case] application and every [~name:"..."] string argument
   (qcheck properties). *)
let test_names str =
  let names = ref [] in
  let string_const (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply (f, args) ->
        (match (f.pexp_desc, List.assoc_opt Asttypes.Nolabel args) with
        | Pexp_ident { txt; _ }, Some a when Longident.last txt = "test_case"
          -> (
            match string_const a with
            | Some s -> names := s :: !names
            | None -> ())
        | _ -> ());
        List.iter
          (fun (label, a) ->
            match (label, string_const a) with
            | Asttypes.Labelled "name", Some s -> names := s :: !names
            | _ -> ())
          args
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  !names

let stale ~file t ~known =
  let stale, live =
    List.partition (fun d -> names_test d.d_rule && not (known d.d_test)) t
  in
  ( live,
    List.map
      (fun d ->
        Finding.v ~file ~line:d.d_line ~col:d.d_col ~rule:"S001"
          (Printf.sprintf
             "%s suppression names test %S, which no scanned test/ file \
              defines"
             d.d_rule d.d_test))
      stale )
