(* Determinism + domain-safety lint front end.

     dune exec bin/lint_cli.exe -- lib bin bench examples test
     dune exec bin/lint_cli.exe -- --format json lib
     dune exec bin/lint_cli.exe -- --rules R,A lib bin
     dune exec bin/lint_cli.exe -- --summary-out lint_summary.tsv lib
     dune exec bin/lint_cli.exe -- --baseline lint_baseline.tsv --update-baseline lib
     dune exec bin/lint_cli.exe -- --explain R001

   Exits 0 when clean (or when every finding is covered by the
   baseline), 1 on findings, 2 on usage errors. *)

open Cmdliner
module Lint = Softstate_lint

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: lib bin bench examples \
           test, relative to the repository root). The U rules need \
           every caller of lib/ in the scanned set.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Lint.Driver.Text); ("json", Lint.Driver.Json) ])
        Lint.Driver.Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Report format: $(b,text) or $(b,json) (one object per line).")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"RULE"
        ~doc:"Print the documentation for $(docv) and exit.")

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"RULES"
        ~doc:
          "Comma-separated rule selection: exact ids ($(b,R001)) or \
           single-letter families ($(b,R,A)). S001/E001 are always \
           checked. Default: all rules.")

let summary_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary-out" ] ~docv:"FILE"
        ~doc:
          "Write the phase-1 whole-program summary (per-unit mutable \
           state, call graph edges with the labels they pass, constructors \
           built, spawn sites, hot marks, interface values and variant \
           constructors) to $(docv).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Compare findings against the snapshot in $(docv) and fail only \
           on new ones. Keys are (file, rule, message), line-insensitive.")

let update_baseline_arg =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Rewrite the $(b,--baseline) file from the current findings and \
           exit 0.")

let explain rule =
  match Lint.Rules.find rule with
  | Some r ->
      Printf.printf "%s — %s\n\n%s\n\nfix: %s\n" r.Lint.Rules.id
        r.Lint.Rules.title r.Lint.Rules.explain r.Lint.Rules.hint;
      0
  | None ->
      Printf.eprintf "unknown rule %s; known: %s\n" rule
        (String.concat ", "
           (List.map (fun r -> r.Lint.Rules.id) Lint.Rules.all));
      2

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Baseline snapshot: one finding per line, rule<TAB>file<TAB>message —
   exactly the fields of Driver.baseline_key, so the file is greppable
   and diffs stay meaningful. *)
let baseline_to_string findings =
  String.concat ""
    (List.map
       (fun (f : Lint.Finding.t) ->
         Printf.sprintf "%s\t%s\t%s\n" f.Lint.Finding.rule f.Lint.Finding.file
           f.Lint.Finding.message)
       findings)

let baseline_of_string text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" then None
         else
           match String.split_on_char '\t' line with
           | rule :: file :: rest ->
               Some
                 (Lint.Finding.v ~file ~line:0 ~col:0 ~rule
                    (String.concat "\t" rest))
           | _ -> None)

let parse_rules spec =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun t -> t <> "")
  |> List.map String.uppercase_ascii

let run paths format rules summary_out baseline update_baseline = function
  | Some rule -> explain rule
  | None -> (
      match List.filter (fun p -> not (Sys.file_exists p)) paths with
      | _ :: _ as missing ->
          Printf.eprintf "no such path: %s\n" (String.concat ", " missing);
          2
      | [] -> (
          let rules = Option.map parse_rules rules in
          let a = Lint.Driver.analyze_paths ?rules paths in
          (match summary_out with
          | Some f -> write_file f (Lint.Summary.to_string a.summaries)
          | None -> ());
          let findings = a.Lint.Driver.findings in
          let nfiles = List.length (Lint.Driver.collect paths) in
          let report fs =
            List.iter print_endline (Lint.Driver.render format fs)
          in
          match (baseline, update_baseline) with
          | None, true ->
              Printf.eprintf "--update-baseline requires --baseline FILE\n";
              2
          | Some bf, true ->
              write_file bf (baseline_to_string findings);
              Printf.eprintf "lint: baseline %s updated (%d finding%s)\n" bf
                (List.length findings)
                (if List.length findings = 1 then "" else "s");
              0
          | Some bf, false -> (
              match read_file bf with
              | exception Sys_error e ->
                  Printf.eprintf "cannot read baseline: %s\n" e;
                  2
              | text ->
                  let base = baseline_of_string text in
                  let fresh, matched =
                    Lint.Driver.apply_baseline ~baseline:base findings
                  in
                  report fresh;
                  if fresh = [] then begin
                    Printf.eprintf
                      "lint: clean (%d files, %d baselined finding%s)\n"
                      nfiles matched
                      (if matched = 1 then "" else "s");
                    0
                  end
                  else begin
                    Printf.eprintf
                      "lint: %d new finding%s (%d baselined)\n"
                      (List.length fresh)
                      (if List.length fresh = 1 then "" else "s")
                      matched;
                    1
                  end)
          | None, false ->
              report findings;
              let n = List.length findings in
              if n = 0 then begin
                Printf.eprintf "lint: clean (%d files)\n" nfiles;
                0
              end
              else begin
                Printf.eprintf "lint: %d finding%s\n" n
                  (if n = 1 then "" else "s");
                1
              end))

let cmd =
  let doc =
    "statically enforce the repository's determinism and domain-safety \
     invariants"
  in
  let info = Cmd.info "softstate-lint" ~doc in
  Cmd.v info
    Term.(
      const run $ paths_arg $ format_arg $ rules_arg $ summary_out_arg
      $ baseline_arg $ update_baseline_arg $ explain_arg)

let () = exit (Cmd.eval' cmd)
