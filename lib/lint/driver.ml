type format = Text | Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec walk acc path =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else walk acc (Filename.concat path entry))
      acc entries
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let collect paths =
  List.fold_left walk [] paths |> List.sort_uniq String.compare

let error_loc exn =
  match exn with
  | Syntaxerr.Error e -> Some (Syntaxerr.location_of_error e)
  | Lexer.Error (_, loc) -> Some loc
  | _ -> None

type parsed = Impl of Parsetree.structure | Intf of Parsetree.signature

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Lexer.init ();
  Lexer.print_warnings := false;
  try
    if Filename.check_suffix file ".mli" then
      Ok (Intf (Parse.interface lexbuf))
    else Ok (Impl (Parse.implementation lexbuf))
  with exn ->
    let line, col =
      match error_loc exn with
      | Some loc ->
          let p = loc.Location.loc_start in
          (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
      | None -> (1, 0)
    in
    Error (Finding.v ~file ~line ~col ~rule:"E001" "source does not parse")

(* Rule selection: [--rules R,A,D004] tokens are either exact ids or
   single-letter families. S001 and E001 are always on — a malformed
   suppression or unparseable file undermines whichever rules were
   selected. *)
let selected rules rule =
  match rules with
  | None -> true
  | Some toks ->
      rule = "S001" || rule = "E001"
      || List.exists
           (fun tok ->
             tok = rule
             || (String.length tok = 1 && rule <> "" && rule.[0] = tok.[0]))
           toks

let missing_mli files =
  List.filter_map
    (fun f ->
      if Config.mli_required f && not (List.mem (f ^ "i") files) then
        Some
          (Finding.v ~file:f ~line:1 ~col:0 ~rule:"M001"
             "no matching .mli interface")
      else None)
    files

type analysis = { findings : Finding.t list; summaries : Summary.program }

(* The full two-phase pipeline over in-memory (file, content) pairs:
   parse each file once; run the single-file D-rules and the phase-1
   summary scan on the same AST; merge summaries and run the
   whole-program R/A/U phase; then filter everything through Config
   scoping, rule selection and per-file suppressions. Suppression
   findings (S001) pass through unfiltered — they are audit records
   about the directives themselves. *)
let analyze_sources ?rules ?(with_m001 = true) sources =
  let files = List.map fst sources in
  let tests = Hashtbl.create 512 in
  let impls = ref [] and intfs = ref [] in
  let per_file =
    List.map
      (fun (file, source) ->
        let supp, supp_findings = Suppress.scan ~file source in
        let findings =
          match parse ~file source with
          | Error f -> [ f ]
          | Ok (Impl str) ->
              if not (Config.counts_as_caller file) then
                List.iter
                  (fun name -> Hashtbl.replace tests name ())
                  (Suppress.test_names str);
              impls := Summary.scan_structure ~file str :: !impls;
              Scan.structure ~file str
          | Ok (Intf sg) ->
              intfs := (file, sg) :: !intfs;
              Scan.signature ~file sg
        in
        (file, supp, supp_findings, findings))
      sources
  in
  (* each unit's summary carries its interface, when one was scanned *)
  let summaries =
    List.rev_map
      (fun (s : Summary.unit_summary) ->
        Option.fold ~none:s ~some:(Summary.with_interface s)
          (List.assoc_opt (s.Summary.u_file ^ "i") !intfs))
      !impls
  in
  let phase2 =
    if summaries = [] then []
    else
      let g = Callgraph.build summaries in
      Race_rules.check g summaries @ Alloc_rules.check g summaries
      @ Export_rules.check g summaries
  in
  (* U001 suppressions must name a test some scanned test/ file
     defines; with no test/ file scanned there is nothing to judge. *)
  let per_file =
    if List.for_all Config.counts_as_caller files then per_file
    else
      List.map
        (fun (file, supp, sf, fs) ->
          let supp, stale =
            Suppress.stale ~file supp ~known:(Hashtbl.mem tests)
          in
          (file, supp, sf @ stale, fs))
        per_file
  in
  let supp_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (f, supp, _, _) -> Hashtbl.replace tbl f supp) per_file;
    fun file ->
      match Hashtbl.find_opt tbl file with
      | Some supp -> supp
      | None -> Suppress.empty
  in
  let keep (f : Finding.t) =
    Config.enabled ~path:f.Finding.file ~rule:f.Finding.rule
    && selected rules f.Finding.rule
    && not
         (Suppress.allows (supp_of f.Finding.file) ~line:f.Finding.line
            ~rule:f.Finding.rule)
  in
  let m001 = if with_m001 then missing_mli files else [] in
  let checked =
    List.concat_map (fun (_, _, _, fs) -> fs) per_file @ phase2 @ m001
  in
  let supp_findings =
    List.concat_map (fun (_, _, sf, _) -> sf) per_file
  in
  { findings =
      supp_findings @ List.filter keep checked
      |> List.sort_uniq Finding.compare;
    summaries }

let analyze_paths ?rules paths =
  let sources, read_errors =
    List.fold_left
      (fun (srcs, errs) f ->
        match read_file f with
        | src -> ((f, src) :: srcs, errs)
        | exception Sys_error e ->
            ( srcs,
              Finding.v ~file:f ~line:1 ~col:0 ~rule:"E001"
                ("cannot read: " ^ e)
              :: errs ))
      ([], []) (collect paths)
  in
  let a = analyze_sources ?rules (List.rev sources) in
  { a with
    findings = List.sort_uniq Finding.compare (read_errors @ a.findings) }

let scan_sources ?rules ?with_m001 sources =
  (analyze_sources ?rules ?with_m001 sources).findings

let scan_paths paths = (analyze_paths paths).findings

let scan_source ~file source =
  scan_sources ~with_m001:false [ (file, source) ]

(* ---- baseline: fail only on findings not present in a recorded
   snapshot. Keys are line-insensitive (file, rule, message) so pure
   code motion doesn't churn the baseline; it's a multiset, so a
   *second* instance of a recorded finding still fails. *)

let baseline_key (f : Finding.t) =
  String.concat "\x00" [ f.Finding.file; f.Finding.rule; f.Finding.message ]

let apply_baseline ~baseline findings =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = baseline_key f in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    baseline;
  let matched = ref 0 in
  let fresh =
    List.filter
      (fun f ->
        let k = baseline_key f in
        match Hashtbl.find_opt counts k with
        | Some n when n > 0 ->
            Hashtbl.replace counts k (n - 1);
            incr matched;
            false
        | _ -> true)
      findings
  in
  (fresh, !matched)

let render fmt findings =
  match fmt with
  | Text -> List.map Finding.to_text findings
  | Json -> List.map Finding.to_json findings
