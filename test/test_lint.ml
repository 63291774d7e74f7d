(* Tests for the determinism lint: one inline fixture per rule
   asserting the finding's rule id and file:line:col, per-directory
   scoping, the suppression grammar (a reason is mandatory), and the
   JSON report format round-tripping through Softstate_obs.Json.

   Fixtures live in string literals, so linting this test file itself
   sees only constants — the directives inside them are real comments
   only when the fixture text is scanned. *)

module Lint = Softstate_lint
module Driver = Lint.Driver
module Finding = Lint.Finding
module Rules = Lint.Rules
module Summary = Lint.Summary
module Json = Softstate_obs.Json

let scan ?(file = "lib/core/fixture.ml") src = Driver.scan_source ~file src
let rule_ids fs = List.map (fun f -> f.Finding.rule) fs

let at rule fs =
  List.filter_map
    (fun f ->
      if f.Finding.rule = rule then Some (f.Finding.line, f.Finding.col)
      else None)
    fs

let loc = Alcotest.(list (pair int int))

let message_mentions needle f =
  let msg = f.Finding.message in
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* ---- the rule battery ---- *)

let test_d001 () =
  let fs = scan "let seed () =\n  Random.self_init ()\n" in
  Alcotest.check loc "fires at the call site" [ (2, 2) ] (at "D001" fs);
  let fs = scan "module R = Random\n" in
  Alcotest.(check bool) "module alias flagged" true
    (List.mem "D001" (rule_ids fs));
  let fs = scan "let b = Stdlib.Random.bool ()\n" in
  Alcotest.(check bool) "Stdlib-qualified flagged" true
    (List.mem "D001" (rule_ids fs));
  let fs =
    Driver.scan_source ~file:"lib/util/rng.ml" "let x = Random.bits ()\n"
  in
  Alcotest.check loc "rng.ml is the blessed sink" [] (at "D001" fs)

let test_d002 () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  let fs = Driver.scan_source ~file:"lib/obs/probe.ml" src in
  Alcotest.check loc "fires in lib" [ (1, 13) ] (at "D002" fs);
  let fs = Driver.scan_source ~file:"bench/wall.ml" src in
  Alcotest.check loc "bench is exempt by directory config" []
    (at "D002" fs);
  let fs = scan "let cpu = Sys.time ()\n" in
  Alcotest.check loc "Sys.time too" [ (1, 10) ] (at "D002" fs)

let test_d003 () =
  let src = "let count h = Hashtbl.fold (fun _ _ n -> n + 1) h 0\n" in
  let fs = Driver.scan_source ~file:"lib/net/x.ml" src in
  Alcotest.check loc "fires in lib/net" [ (1, 14) ] (at "D003" fs);
  let fs = Driver.scan_source ~file:"lib/sched/x.ml" src in
  Alcotest.check loc "lib/sched is out of D003 scope" [] (at "D003" fs);
  let fs =
    Driver.scan_source ~file:"lib/sstp/x.ml"
      "let visit h f = Hashtbl.iter f h\n"
  in
  Alcotest.check loc "iter in lib/sstp" [ (1, 16) ] (at "D003" fs)

let test_d004 () =
  let fs = scan "let z x = x = 1.0\n" in
  Alcotest.check loc "float literal operand" [ (1, 10) ] (at "D004" fs);
  let fs = scan "let z x y = x <> y *. 2.0\n" in
  Alcotest.check loc "float-operator operand" [ (1, 12) ] (at "D004" fs);
  let fs = scan "let z x y = compare (x +. y) 0.5\n" in
  Alcotest.check loc "polymorphic compare" [ (1, 12) ] (at "D004" fs);
  let fs = scan "let z x = Float.equal x 1.0\nlet c = Float.compare 1.0\n" in
  Alcotest.check loc "Float.equal/compare are the fix" [] (at "D004" fs);
  let fs = scan "let z x = x = 1\n" in
  Alcotest.check loc "integer comparison untouched" [] (at "D004" fs)

let test_d005 () =
  let fs = scan "let f l = List.hd l\n" in
  Alcotest.check loc "List.hd" [ (1, 10) ] (at "D005" fs);
  let fs = scan "let g o = Option.get o\nlet h x = Obj.magic x\n" in
  Alcotest.check loc "Option.get and Obj.magic" [ (1, 10); (2, 10) ]
    (at "D005" fs);
  let fs = Driver.scan_source ~file:"bench/x.ml" "let f l = List.hd l\n" in
  Alcotest.check loc "lib-only rule" [] (at "D005" fs)

let test_m001 () =
  let fs =
    Driver.missing_mli
      [ "lib/core/foo.ml"; "lib/core/foo.mli"; "lib/core/bar.ml";
        "bin/main.ml"; "test/test_x.ml" ]
  in
  Alcotest.(check (list string))
    "only the uncovered lib module" [ "lib/core/bar.ml" ]
    (List.map (fun f -> f.Finding.file) fs);
  Alcotest.(check (list string)) "as M001" [ "M001" ] (rule_ids fs)

let test_e001 () =
  let fs = scan "let = = =\n" in
  Alcotest.(check (list string)) "unparseable is a finding" [ "E001" ]
    (rule_ids fs)

(* ---- suppressions ---- *)

let test_suppression_silences () =
  let src =
    "let now () =\n\
    \  (* lint: allow D002 probe measures CPU coupling on purpose *)\n\
    \  Unix.gettimeofday ()\n"
  in
  Alcotest.(check (list string))
    "preceding-line directive silences" []
    (rule_ids (Driver.scan_source ~file:"lib/obs/p.ml" src));
  let src =
    "let now () = Sys.time () (* lint: allow D002 cpu probe by design *)\n"
  in
  Alcotest.(check (list string))
    "same-line directive silences" []
    (rule_ids (Driver.scan_source ~file:"lib/obs/p.ml" src));
  let src =
    "let a () = Sys.time ()\n\
     (* lint: allow D002 only covers its own and the next line *)\n\
     let b () = Sys.time ()\n\
     let c () = Sys.time ()\n"
  in
  Alcotest.check loc "scope is directive line + 1"
    [ (1, 11); (4, 11) ]
    (at "D002" (Driver.scan_source ~file:"lib/obs/p.ml" src))

let test_suppression_needs_reason () =
  let src = "let now () =\n  (* lint: allow D002 *)\n  Sys.time ()\n" in
  let fs = Driver.scan_source ~file:"lib/obs/p.ml" src in
  Alcotest.check loc "reasonless directive is an S001 finding" [ (2, 2) ]
    (at "S001" fs);
  Alcotest.check loc "and it suppresses nothing" [ (3, 2) ] (at "D002" fs)

let test_suppression_unknown_rule () =
  let src = "(* lint: allow D999 sounds legit *)\nlet x = 1\n" in
  let fs = scan src in
  Alcotest.check loc "unknown rule id is an S001 finding" [ (1, 0) ]
    (at "S001" fs)

let test_directive_in_string_ignored () =
  let src = "let s = \"(* lint: allow D002 *)\"\n" in
  Alcotest.(check (list string))
    "directive text inside a string literal is not a directive" []
    (rule_ids (scan src))

(* ---- alias blindness (D-rules must see through module aliases) ---- *)

let test_alias_unix () =
  let src = "module U = Unix\nlet now () = U.gettimeofday ()\n" in
  let fs = Driver.scan_source ~file:"lib/obs/p.ml" src in
  Alcotest.check loc "aliased Unix call still D002" [ (2, 13) ] (at "D002" fs);
  (* alias of an alias: expansion iterates *)
  let src =
    "module U = Unix\nmodule V = U\nlet now () = V.gettimeofday ()\n"
  in
  let fs = Driver.scan_source ~file:"lib/obs/p.ml" src in
  Alcotest.check loc "alias chain expands" [ (3, 13) ] (at "D002" fs)

let test_alias_local_module () =
  let src = "let f () =\n  let module R = Random in\n  R.bits ()\n" in
  let fs = scan src in
  Alcotest.(check bool) "let-module alias flagged" true
    (List.mem "D001" (rule_ids fs))

(* ---- R-family: domain-safety over the merged program ---- *)

let test_r001_same_unit () =
  let src =
    "let hits = ref 0\nlet run () = Domain.spawn (fun () -> incr hits)\n"
  in
  let fs = scan src in
  Alcotest.check loc "R001 anchors at the spawn" [ (2, 13) ] (at "R001" fs);
  let f = List.find (fun f -> f.Finding.rule = "R001") fs in
  Alcotest.(check bool) "message names the reached state" true
    (message_mentions "Fixture.hits" f)

(* A functor's body is module code too: each application makes its
   own [hits], which the domains it spawns then share. *)
let test_r001_functor_body () =
  let src =
    "module Make (X : sig end) = struct\n\
    \  let hits = ref 0\n\
    \  let run () = Domain.spawn (fun () -> incr hits)\n\
     end\n"
  in
  Alcotest.check loc "R001 anchors at the spawn in the body" [ (3, 15) ]
    (at "R001" (scan src))

let test_r001_cross_unit () =
  let fs =
    Driver.scan_sources
      [ ("lib/core/state.ml", "let table = Hashtbl.create 16\n");
        ( "lib/core/worker.ml",
          "let go () = Domain.spawn (fun () -> State.table)\n" ) ]
  in
  Alcotest.(check bool) "spawn in worker reaches State.table" true
    (List.exists
       (fun f ->
         f.Finding.rule = "R001" && f.Finding.file = "lib/core/worker.ml")
       fs)

let test_r001_sync_module_exempt () =
  let fs =
    Driver.scan_sources
      [ ("lib/util/mutex.ml", "let registry = Hashtbl.create 8\n");
        ( "lib/core/worker.ml",
          "let go () = Domain.spawn (fun () -> Mutex.registry)\n" ) ]
  in
  Alcotest.check loc "state owned by a sync module is exempt" []
    (at "R001" fs)

let test_r002_lazy () =
  let src =
    "let table = lazy (Array.make 4 0)\n\
     let go () = Domain.spawn (fun () -> Lazy.force table)\n"
  in
  let fs = scan src in
  Alcotest.check loc "lazy forcing across domains is R002" [ (2, 12) ]
    (at "R002" fs);
  Alcotest.check loc "and not also R001" [] (at "R001" fs)

let rng_unit =
  ("lib/util/rng.ml", "let float r b = ignore r; b\nlet split r = r\n")

let test_r003_shared_rng () =
  let fs =
    Driver.scan_sources
      [ rng_unit;
        ( "lib/core/worker.ml",
          "let go rng = Parallel.map 4 (fun i -> Rng.float rng (float_of_int \
           i))\n" ) ]
  in
  Alcotest.(check bool) "task drawing from a shared Rng is R003" true
    (List.exists
       (fun f ->
         f.Finding.rule = "R003" && f.Finding.file = "lib/core/worker.ml")
       fs)

let test_r003_split_is_safe () =
  let fs =
    Driver.scan_sources
      [ rng_unit;
        ( "lib/core/worker.ml",
          "let go rng =\n\
          \  let s = Rng.split rng in\n\
          \  Parallel.map 4 (fun i -> Rng.float s (float_of_int i))\n" ) ]
  in
  Alcotest.check loc "splitting in the spawning definition is the fix" []
    (at "R003" fs)

(* ---- A-family: hot-path allocation ---- *)

let test_a001_closure () =
  let src = "let[@hot] go xs = List.iter (fun x -> ignore x) xs\n" in
  Alcotest.check loc "closure in a [@hot] body" [ (1, 28) ]
    (at "A001" (scan src));
  (* the definition's own parameter lambdas are the spine, not captures *)
  let src = "let[@hot] add a b = a + b\n" in
  Alcotest.check loc "parameter spine is exempt" [] (at "A001" (scan src))

let test_a002_boxing () =
  let src = "let[@hot] pair x = (x, x)\n" in
  Alcotest.check loc "tuple construction" [ (1, 19) ] (at "A002" (scan src));
  let src = "let[@hot] wrap x = Some x\n" in
  Alcotest.check loc "option construction" [ (1, 19) ] (at "A002" (scan src))

let test_a003_partial () =
  let src = "let add3 a b c = a + b + c\nlet[@hot] f x = add3 x 1\n" in
  Alcotest.check loc "partial application in hot path" [ (2, 16) ]
    (at "A003" (scan src));
  let src = "let add3 a b c = a + b + c\nlet[@hot] f x = add3 x 1 2\n" in
  Alcotest.check loc "full application is fine" [] (at "A003" (scan src))

let test_a004_list_build () =
  let src = "let[@hot] dup xs = List.map succ xs\n" in
  Alcotest.check loc "List.map in hot path" [ (1, 19) ]
    (at "A004" (scan src))

let test_a_rules_cold_def_silent () =
  let src = "let cold xs = (List.map succ xs, Some 1)\n" in
  Alcotest.(check (list string)) "unannotated definitions are not checked"
    [] (rule_ids (scan src))

let test_a_rules_config_hot_path () =
  (* Seq_ring.find is named by Config.hot_paths: no [@hot] needed *)
  let fs =
    Driver.scan_source ~file:"lib/core/seq_ring.ml" "let find t = Some t\n"
  in
  Alcotest.check loc "config-listed definition is hot" [ (1, 13) ]
    (at "A002" fs)

let test_a_rules_nested_hot_region () =
  let src =
    "let outer () =\n  let[@hot] inner x = Some x in\n  inner 1\n"
  in
  let fs = scan src in
  Alcotest.check loc "allocation inside a nested [@hot] binding" [ (2, 22) ]
    (at "A002" fs);
  let f = List.find (fun f -> f.Finding.rule = "A002") fs in
  Alcotest.(check bool) "named after the inner region" true
    (message_mentions "Fixture.inner" f)

let test_rule_selection () =
  let src = "let hits = ref 0\nlet run () = Domain.spawn (fun () -> incr hits)\nlet now () = Sys.time ()\n" in
  let fs =
    Driver.scan_sources ~rules:[ "R" ] [ ("lib/core/fixture.ml", src) ]
  in
  Alcotest.(check bool) "family keeps R001" true
    (List.mem "R001" (rule_ids fs));
  Alcotest.(check bool) "family drops D002" false
    (List.mem "D002" (rule_ids fs));
  let fs =
    Driver.scan_sources ~rules:[ "D002" ] [ ("lib/core/fixture.ml", src) ]
  in
  Alcotest.(check (list string)) "exact id keeps only D002" [ "D002" ]
    (rule_ids fs)

(* ---- suppression edge cases ---- *)

let test_suppression_multi_rule () =
  let src =
    "let[@hot] go xs =\n\
     \  (* lint: allow A001,A004 fixture exercises the comma grammar *)\n\
     \  List.map (fun x -> x) xs\n"
  in
  Alcotest.(check (list string)) "one directive silences both rules" []
    (rule_ids (scan src));
  let src =
    "let[@hot] go xs =\n\
     \  (* lint: allow A001,Z999 one bad id poisons the directive *)\n\
     \  List.map (fun x -> x) xs\n"
  in
  let fs = scan src in
  Alcotest.check loc "unknown id in the list is S001" [ (2, 2) ]
    (at "S001" fs);
  Alcotest.(check bool) "and nothing is suppressed" true
    (List.mem "A001" (rule_ids fs) && List.mem "A004" (rule_ids fs))

let test_suppression_in_mli () =
  let fs =
    Driver.scan_source ~file:"lib/core/fixture.mli"
      "(* lint: allow D999 interfaces parse directives too *)\nval x : int\n"
  in
  Alcotest.check loc "unknown rule in an interface is S001" [ (1, 0) ]
    (at "S001" fs);
  let fs =
    Driver.scan_source ~file:"lib/core/fixture.mli"
      "(* lint: allow D002 documented exemption *)\nval now : unit -> float\n"
  in
  Alcotest.(check (list string)) "well-formed interface directive is quiet"
    [] (rule_ids fs)

let test_suppression_last_line () =
  (* same-line directive on the final line, no trailing newline *)
  let src = "let now () = Sys.time () (* lint: allow D002 probe *)" in
  Alcotest.(check (list string)) "directive on the last line works" []
    (rule_ids (Driver.scan_source ~file:"lib/obs/p.ml" src));
  (* directive as the very last line, covering nothing: harmless *)
  let src = "let x = 1\n(* lint: allow D002 trailing directive *)" in
  Alcotest.(check (list string)) "trailing directive is no error" []
    (rule_ids (Driver.scan_source ~file:"lib/obs/p.ml" src))

(* ---- phase-1 summary serialization ---- *)

let gen_summary_program =
  let open QCheck.Gen in
  let name = oneofl [ "alpha"; "beta"; "x1"; "Pcg.next"; "run_many" ] in
  let path = oneofl [ "lib/core/a.ml"; "lib/util/b.ml"; "bin/c.ml" ] in
  let region = oneofl [ ""; "inner"; "sift" ] in
  let mkind =
    oneofl
      [ Summary.Ref_cell; Summary.Container; Summary.Lazy_block;
        Summary.Mutable_record; Summary.Derived ]
  in
  let mutable_global =
    map3
      (fun n l k -> { Summary.m_name = n; m_line = l; m_kind = k })
      name small_nat mkind
  in
  let alloc =
    map3
      (fun r (l, c) (reg, w) ->
        { Summary.a_rule = r; a_line = l; a_col = c; a_region = reg;
          a_what = w })
      (oneofl [ "A001"; "A002"; "A004" ])
      (pair small_nat small_nat)
      (pair region (oneofl [ "closure construction"; "tuple"; "list cons" ]))
  in
  let labels = list_size (int_bound 3) (oneofl [ "obs"; "jitter"; "start" ]) in
  let call =
    map3
      (fun p (n, l) (c, reg, labels) ->
        { Summary.c_path = p; c_nargs = n; c_labels = labels; c_line = l;
          c_col = c; c_region = reg })
      (oneofl [ "Heap.insert"; "go"; "Softstate_sim.Parallel.map" ])
      (pair small_nat small_nat)
      (triple small_nat region labels)
  in
  let ctor = oneofl [ "Some"; "Target"; "Sstp.Session.Manual" ] in
  let label = oneofl [ "u_kick"; "s_live"; "rate_bps" ] in
  let def =
    map3
      (fun (n, l, a) (h, b, (reads, sets)) ((refs, ctors), calls, allocs) ->
        { Summary.d_name = n; d_line = l; d_arity = a; d_hot = h;
          d_builds_mutable = b; d_refs = refs; d_ctors = ctors;
          d_reads = reads; d_sets = sets; d_calls = calls; d_allocs = allocs })
      (triple name small_nat (int_bound 4))
      (triple bool bool
         (pair (list_size (int_bound 3) label) (list_size (int_bound 2) label)))
      (triple
         (pair (list_size (int_bound 3) name) (list_size (int_bound 2) ctor))
         (list_size (int_bound 3) call)
         (list_size (int_bound 3) alloc))
  in
  let export names labels =
    map3
      (fun n (l, c) labels ->
        { Summary.e_name = n; e_line = l; e_col = c; e_optional = labels })
      names (pair small_nat small_nat) labels
  in
  let spawn =
    map3
      (fun (l, c) (k, e) (refs, u) ->
        { Summary.s_line = l; s_col = c; s_kind = k; s_encl = e;
          s_refs = refs; s_unresolved = u })
      (pair small_nat small_nat)
      (pair (oneofl [ Summary.Domain_spawn; Summary.Task_slot ]) name)
      (pair (list_size (int_bound 3) name) bool)
  in
  let field = oneofl [ "unicast.u_kick"; "Stats.t.sent"; "t.rate_bps" ] in
  let unit_summary =
    map3
      (fun (n, f, (fields, mutable_fields)) (muts, exports, variants)
           (defs, spawns) ->
        { Summary.u_name = n; u_file = f; u_mutables = muts; u_defs = defs;
          u_spawns = spawns; u_exports = exports; u_variants = variants;
          u_fields = fields; u_mutable_fields = mutable_fields })
      (triple name path
         (pair
            (list_size (int_bound 3) (export field (return [])))
            (list_size (int_bound 2) (export field (return [])))))
      (triple
         (list_size (int_bound 2) mutable_global)
         (list_size (int_bound 3) (export name labels))
         (list_size (int_bound 2) (export ctor (return []))))
      (pair (list_size (int_bound 3) def) (list_size (int_bound 2) spawn))
  in
  list_size (int_bound 3) unit_summary

let qcheck_summary_roundtrip =
  QCheck.Test.make ~name:"summary serialization round-trips" ~count:200
    (QCheck.make gen_summary_program)
    (fun p -> Summary.of_string (Summary.to_string p) = p)

let test_summary_of_string_rejects_garbage () =
  let of_string_opt text =
    try Some (Summary.of_string text) with Summary.Bad_line _ -> None
  in
  Alcotest.(check bool) "malformed text is None" true
    (of_string_opt "unit\tonly-one-field" = None);
  Alcotest.(check bool) "orphan ref line is None" true
    (of_string_opt "ref\tx\n" = None);
  Alcotest.(check bool) "orphan ctor line is None" true
    (of_string_opt "ctor\tTarget\n" = None);
  Alcotest.(check bool) "val before any unit is None" true
    (of_string_opt "val\tcreate\t1\t4\tstart\n" = None);
  Alcotest.(check bool) "variant with a bad line number is None" true
    (of_string_opt "unit\tU\tlib/u.ml\nvariant\tTarget\tx\t2\t\n"
    = None);
  Alcotest.(check bool) "call without its labels field is None" true
    (of_string_opt
       "unit\tU\tlib/u.ml\ndef\tf\t1\t0\t0\t0\ncall\tg\t0\t1\t2\t\n"
    = None);
  Alcotest.(check bool) "empty text is the empty program" true
    (of_string_opt "" = Some [])

(* ---- baselines ---- *)

let test_baseline_subtraction () =
  let v ~line rule message =
    Finding.v ~file:"lib/a.ml" ~line ~col:1 ~rule message
  in
  let old_d002 = v ~line:3 "D002" "wall clock" in
  let moved_d002 = v ~line:9 "D002" "wall clock" in
  let fresh = v ~line:4 "D005" "List.hd" in
  let kept, matched =
    Driver.apply_baseline ~baseline:[ old_d002 ] [ moved_d002; fresh ]
  in
  Alcotest.(check (list string)) "recorded finding absorbed despite moving"
    [ "D005" ] (rule_ids kept);
  Alcotest.(check int) "one matched" 1 matched;
  (* multiset: a second instance of a recorded finding still surfaces *)
  let kept, matched =
    Driver.apply_baseline ~baseline:[ old_d002 ]
      [ moved_d002; v ~line:12 "D002" "wall clock" ]
  in
  Alcotest.(check int) "only one absorbed" 1 (List.length kept);
  Alcotest.(check int) "matched count" 1 matched

(* ---- report formats ---- *)

let test_json_roundtrip () =
  let fs = scan "let z x = x = 1.0\nlet f l = List.hd l\n" in
  Alcotest.(check int) "two findings" 2 (List.length fs);
  List.iter2
    (fun line f ->
      match Json.parse_flat line with
      | Error e -> Alcotest.failf "unparseable JSON line %s: %s" line e
      | Ok kvs ->
          let str k =
            match Json.member k kvs with
            | Some (Json.String s) -> s
            | _ -> Alcotest.failf "missing string field %s in %s" k line
          in
          let num k =
            match Json.member k kvs with
            | Some (Json.Number n) -> int_of_float n
            | _ -> Alcotest.failf "missing number field %s in %s" k line
          in
          Alcotest.(check string) "file" f.Finding.file (str "file");
          Alcotest.(check int) "line" f.Finding.line (num "line");
          Alcotest.(check int) "col" f.Finding.col (num "col");
          Alcotest.(check string) "rule" f.Finding.rule (str "rule");
          Alcotest.(check string) "message" f.Finding.message (str "message"))
    (Driver.render Driver.Json fs)
    fs

let test_text_format () =
  let fs = scan "let z x = x = 1.0\n" in
  match Driver.render Driver.Text fs with
  | [ line ] ->
      Alcotest.(check bool) "file:line:col prefix" true
        (String.length line > 24
        && String.sub line 0 24 = "lib/core/fixture.ml:1:10")
  | other ->
      Alcotest.failf "expected one text line, got %d" (List.length other)

(* ---- U001: exports no other unit references ---- *)

let u001 sources =
  at "U001" (Driver.scan_sources ~rules:[ "U001" ] ~with_m001:false sources)

let exporter =
  [ ("lib/core/exporter.mli", "val used : int -> int\nval own : int\n");
    ("lib/core/exporter.ml", "let used x = x + 1\nlet own = used 1\n") ]

let test_u001_cross_unit_reference () =
  Alcotest.check loc "a reference from another unit keeps the export" [ (2, 4) ]
    (u001
       (exporter
       @ [ ("lib/core/caller.ml", "let go () = Exporter.used 2\n") ]))

let test_u001_own_unit_only () =
  Alcotest.check loc "references from the defining unit do not count"
    [ (1, 4); (2, 4) ] (u001 exporter)

let test_u001_test_reference () =
  Alcotest.check loc "references from test/ do not count" [ (1, 4); (2, 4) ]
    (u001
       (exporter
       @ [ ( "test/test_exporter.ml",
             "let () = ignore (Exporter.used 2, Exporter.own)\n" ) ]))

let test_u001_module_alias () =
  Alcotest.check loc "a reference through a module alias counts" [ (2, 4) ]
    (u001
       (exporter
       @ [ ( "lib/core/caller.ml",
             "module E = Softstate_core.Exporter\nlet go () = E.used 2\n" );
           ( "bin/cli.ml",
             "let go () =\n\
             \  let module X = Softstate_core.Exporter in\n\
             \  X.used 3\n" ) ]))

let test_u001_functor_body () =
  Alcotest.check loc "a reference from a functor body counts" [ (2, 4) ]
    (u001
       (exporter
       @ [ ( "lib/core/caller.ml",
             "module Make (X : sig end) = struct\n\
             \  let go () = Exporter.used 2\n\
              end\n" ) ]))

let test_u001_include () =
  Alcotest.check loc "a reference from an included structure counts"
    [ (2, 4) ]
    (u001
       (exporter
       @ [ ( "lib/core/caller.ml",
             "include struct\n  let go () = Exporter.used 2\nend\n" ) ]))

(* An export only a test calls, kept by a U001 directive with
   [reason]; the test file defines the test "own value". *)
let kept_export reason =
  [ ( "lib/core/exporter.mli",
      Printf.sprintf "(* lint: allow U001 %s *)\nval own : int\n" reason );
    ("lib/core/exporter.ml", "let own = 1\n");
    ( "test/test_exporter.ml",
      "let cases =\n\
      \  [ Alcotest.test_case \"own value\" `Quick (fun () ->\n\
      \      ignore Softstate_core.Exporter.own) ]\n" ) ]

let u001_verdict reason =
  let fs = Driver.scan_sources ~with_m001:false (kept_export reason) in
  (at "S001" fs, at "U001" fs)

let verdict = Alcotest.(pair loc loc)

let test_u001_reason_form () =
  Alcotest.check verdict "a (b) reason is S001 and keeps nothing"
    ([ (1, 0) ], [ (2, 4) ])
    (u001_verdict "(b) DESIGN.md section 1 row 3")

let test_u001_stale_test () =
  Alcotest.check verdict "a test no test/ file defines is S001"
    ([ (1, 0) ], [ (2, 4) ])
    (u001_verdict "(a) used by test \"own values\"")

let test_u001_named_test () =
  Alcotest.check verdict "a defined test keeps the export" ([], [])
    (u001_verdict "(a) used by test \"own value\"")

(* ---- U002: optional labels no program passes, constructors no
   program builds ---- *)

let u002 sources =
  at "U002" (Driver.scan_sources ~rules:[ "U002" ] ~with_m001:false sources)

let labelled =
  [ ("lib/core/opts.mli", "val create : ?start:float -> unit -> float\n");
    ("lib/core/opts.ml", "let create ?(start = 0.0) () = start\n");
    ("lib/core/caller.ml", "let go () = Opts.create ()\n") ]

let test_u002_unpassed_label () =
  Alcotest.check loc "an optional label no application passes" [ (1, 4) ]
    (u002 labelled)

let test_u002_program_passes () =
  List.iter
    (fun file ->
      Alcotest.check loc (file ^ " passes the label") []
        (u002
           (labelled @ [ (file, "let go () = Opts.create ~start:1.0 ()\n") ])))
    [ "bench/b.ml"; "examples/e.ml" ]

let test_u002_test_passes () =
  Alcotest.check loc "an application from test/ does not count" [ (1, 4) ]
    (u002
       (labelled
       @ [ ( "test/test_opts.ml",
             "let () = ignore (Opts.create ~start:1.0 ())\n" ) ]))

let test_u002_forwarded () =
  Alcotest.check loc "a forwarded ?start passes the label" []
    (u002
       (labelled
       @ [ ("lib/core/wrap.ml", "let go ?start () = Opts.create ?start ()\n")
         ]))

let test_u002_unused () =
  Alcotest.check loc "a val no program uses is left to U001" []
    (u002
       [ List.nth labelled 0; List.nth labelled 1;
         ("test/test_opts.ml", "let () = ignore (Opts.create ())\n") ])

let test_u002_unapplied () =
  Alcotest.check loc "an unapplied reference passes no label" [ (1, 4) ]
    (u002
       [ List.nth labelled 0; List.nth labelled 1;
         ("lib/core/caller.ml", "let make = Opts.create\n") ])

(* [Fast] is built only by a test and [Off] only matched in a
   pattern; [Slow] is built by another unit. *)
let modes extra =
  [ ( "lib/core/mode.mli",
      "type t = Fast | Slow of int | Off\nval name : t -> string\n" );
    ( "lib/core/mode.ml",
      "type t = Fast | Slow of int | Off\n\
       let name = function\n\
      \  | Fast -> \"fast\" | Slow _ -> \"slow\" | Off -> \"off\"\n"
      ^ extra );
    ("lib/core/user.ml", "let go () = Mode.name (Mode.Slow 3)\n");
    ("test/test_mode.ml", "let () = ignore (Mode.name Mode.Fast)\n") ]

let test_u002_unbuilt_constructor () =
  Alcotest.check loc "constructors no program expression builds"
    [ (1, 9); (1, 30) ] (u002 (modes ""))

let test_u002_parser_builds () =
  Alcotest.check loc "a constructor its own unit's parser builds" []
    (u002
       (modes
          "let of_string = function\n\
          \  | \"fast\" -> Some Fast\n\
          \  | \"off\" -> Some Off\n\
          \  | _ -> None\n"))

(* An unpassed label kept by a U002 directive with [reason]; the test
   file defines the test "start value". *)
let u002_verdict reason =
  let fs =
    Driver.scan_sources ~with_m001:false
      [ ( "lib/core/opts.mli",
          Printf.sprintf
            "(* lint: allow U002 %s *)\nval create : ?start:float -> unit -> \
             float\n"
            reason );
        List.nth labelled 1;
        List.nth labelled 2;
        ( "test/test_opts.ml",
          "let cases =\n\
          \  [ Alcotest.test_case \"start value\" `Quick (fun () ->\n\
          \      ignore (Opts.create ~start:1.0 ())) ]\n" ) ]
  in
  (at "S001" fs, at "U002" fs)

let test_u002_reason_form () =
  Alcotest.check verdict "a (b) reason is S001 and keeps nothing"
    ([ (1, 0) ], [ (2, 4) ])
    (u002_verdict "(b) DESIGN.md section 1 row 3");
  Alcotest.check verdict "a test no test/ file defines is S001"
    ([ (1, 0) ], [ (2, 4) ])
    (u002_verdict "(a) used by test \"start values\"");
  Alcotest.check verdict "a defined test keeps the label" ([], [])
    (u002_verdict "(a) used by test \"start value\"")

(* ---- U003: record fields no program reads ---- *)

let u003 sources =
  at "U003" (Driver.scan_sources ~rules:[ "U003" ] ~with_m001:false sources)

(* Four fields, one mutable and one function-typed, at lines 2-5,
   column 2 of the interface ([above_a] goes on a line of its own above
   [a]); [make] builds each of them, and [user.ml] assigns [c] unless
   [assigned] is false. *)
let record ?above_a ?(assigned = true) extra =
  [ ( "lib/core/rec.mli",
      "type t = {\n"
      ^ Option.fold ~none:"" ~some:(Printf.sprintf "  %s\n") above_a
      ^ "  a : int;\n\
        \  b : int;\n\
        \  mutable c : int;\n\
        \  f : unit -> int;\n\
         }\n\
         val make : unit -> t\n" );
    ( "lib/core/rec.ml",
      "type t = { a : int; b : int; mutable c : int; f : unit -> int }\n\
       let make () = { a = 1; b = 2; c = 3; f = (fun () -> 4) }\n" );
    ( "lib/core/user.ml",
      (if assigned then "let zero r = r.Rec.c <- 0\n" else "") ^ extra ) ]

let fields = [ (2, 2); (3, 2); (4, 2); (5, 2) ]

let test_u003_construction () =
  Alcotest.check loc "a construction reads no field" fields (u003 (record ""))

let test_u003_pattern () =
  Alcotest.check loc "a record pattern reads the labels it names"
    [ (3, 2); (4, 2); (5, 2) ]
    (u003 (record "let get = function { Rec.a = x; _ } -> x\n"))

let test_u003_pun () =
  Alcotest.check loc "a punned label is read" [ (2, 2); (4, 2); (5, 2) ]
    (u003 (record "let get { Rec.b; _ } = b\n"))

let test_u003_test_read () =
  Alcotest.check loc "a read from test/ does not count" fields
    (u003
       (record ""
       @ [ ( "test/test_rec.ml",
             "let () = ignore ((Rec.make ()).Rec.a, (Rec.make ()).Rec.f ())\n"
           ) ]))

let test_u003_with_update () =
  Alcotest.check loc "an update reads only what its right-hand sides read"
    [ (2, 2); (4, 2); (5, 2) ]
    (u003 (record "let bump r = { r with Rec.a = r.Rec.b }\n"))

let test_u003_constrained_module () =
  Alcotest.check loc "a read in a constrained module counts"
    [ (3, 2); (4, 2); (5, 2) ]
    (u003
       (record
          "module M : sig\n\
          \  val get : Rec.t -> int\n\
           end = struct\n\
          \  let get r = r.Rec.a\n\
           end\n"))

let read_all = "let sum r = r.Rec.a + r.Rec.b + r.Rec.c + r.Rec.f ()\n"

let test_u003_mutable () =
  let fs =
    Driver.scan_sources ~rules:[ "U003" ] ~with_m001:false
      (record ~assigned:false read_all)
  in
  Alcotest.check loc "a mutable field no program assigns" [ (4, 2) ]
    (at "U003" fs);
  Alcotest.(check bool) "the finding says why" true
    (List.for_all (message_mentions "no program assigns") fs);
  Alcotest.check loc "an assignment keeps it" []
    (u003 (record read_all))

(* A field only a test reads, kept by a U003 directive with [reason];
   the test file defines the test "rec fields". *)
let u003_verdict reason =
  let fs =
    Driver.scan_sources ~with_m001:false
      (record
         ~above_a:(Printf.sprintf "(* lint: allow U003 %s *)" reason)
         "let sum r = r.Rec.b + r.Rec.c + r.Rec.f ()\n"
      @ [ ( "test/test_rec.ml",
            "let cases =\n\
            \  [ Alcotest.test_case \"rec fields\" `Quick (fun () ->\n\
            \      ignore (Rec.make ()).Rec.a) ]\n" ) ])
  in
  (at "S001" fs, at "U003" fs)

let test_u003_reason_form () =
  (* the directive's line shifts the fields down by one *)
  Alcotest.check verdict "a (b) reason is S001 and keeps nothing"
    ([ (2, 2) ], [ (3, 2) ])
    (u003_verdict "(b) DESIGN.md section 1 row 3");
  Alcotest.check verdict "a test no test/ file defines is S001"
    ([ (2, 2) ], [ (3, 2) ])
    (u003_verdict "(a) used by test \"rec field\"");
  Alcotest.check verdict "a defined test keeps the field" ([], [])
    (u003_verdict "(a) used by test \"rec fields\"")

let test_catalogue () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Rules.id ^ " has hint and explain")
        true
        (r.Rules.hint <> "" && r.Rules.explain <> ""))
    Rules.all;
  Alcotest.(check bool) "find knows D003" true (Rules.is_known "D003");
  Alcotest.(check bool) "find knows U002" true (Rules.is_known "U002");
  Alcotest.(check bool) "find knows U003" true (Rules.is_known "U003");
  Alcotest.(check bool) "find rejects D999" false (Rules.is_known "D999")

let () =
  Alcotest.run "softstate_lint"
    [ ( "rules",
        [ Alcotest.test_case "D001 ambient randomness" `Quick test_d001;
          Alcotest.test_case "D002 wall clock" `Quick test_d002;
          Alcotest.test_case "D003 hashtbl order" `Quick test_d003;
          Alcotest.test_case "D004 float compare" `Quick test_d004;
          Alcotest.test_case "D005 partial/magic" `Quick test_d005;
          Alcotest.test_case "M001 missing mli" `Quick test_m001;
          Alcotest.test_case "E001 parse error" `Quick test_e001 ] );
      ( "aliases",
        [ Alcotest.test_case "aliased Unix is still D002" `Quick
            test_alias_unix;
          Alcotest.test_case "let-module alias" `Quick
            test_alias_local_module ] );
      ( "races",
        [ Alcotest.test_case "R001 same unit" `Quick test_r001_same_unit;
          Alcotest.test_case "R001 in a functor body" `Quick
            test_r001_functor_body;
          Alcotest.test_case "R001 cross unit" `Quick test_r001_cross_unit;
          Alcotest.test_case "R001 sync-module exempt" `Quick
            test_r001_sync_module_exempt;
          Alcotest.test_case "R002 lazy" `Quick test_r002_lazy;
          Alcotest.test_case "R003 shared rng" `Quick test_r003_shared_rng;
          Alcotest.test_case "R003 split is safe" `Quick
            test_r003_split_is_safe ] );
      ( "allocs",
        [ Alcotest.test_case "A001 closure" `Quick test_a001_closure;
          Alcotest.test_case "A002 boxing" `Quick test_a002_boxing;
          Alcotest.test_case "A003 partial application" `Quick
            test_a003_partial;
          Alcotest.test_case "A004 list building" `Quick
            test_a004_list_build;
          Alcotest.test_case "cold definitions silent" `Quick
            test_a_rules_cold_def_silent;
          Alcotest.test_case "config hot path" `Quick
            test_a_rules_config_hot_path;
          Alcotest.test_case "nested hot region" `Quick
            test_a_rules_nested_hot_region;
          Alcotest.test_case "rule selection" `Quick test_rule_selection ] );
      ( "exports",
        [ Alcotest.test_case "U001 cross-unit reference" `Quick
            test_u001_cross_unit_reference;
          Alcotest.test_case "U001 own unit only" `Quick
            test_u001_own_unit_only;
          Alcotest.test_case "U001 test reference" `Quick
            test_u001_test_reference;
          Alcotest.test_case "U001 module alias" `Quick test_u001_module_alias;
          Alcotest.test_case "U001 reference from a functor body" `Quick
            test_u001_functor_body;
          Alcotest.test_case "U001 reference from an include" `Quick
            test_u001_include;
          Alcotest.test_case "U001 reason form" `Quick test_u001_reason_form;
          Alcotest.test_case "U001 stale test name" `Quick
            test_u001_stale_test;
          Alcotest.test_case "U001 named test" `Quick test_u001_named_test;
          Alcotest.test_case "U002 unpassed label" `Quick
            test_u002_unpassed_label;
          Alcotest.test_case "U002 passed from bench or examples" `Quick
            test_u002_program_passes;
          Alcotest.test_case "U002 passed only from test" `Quick
            test_u002_test_passes;
          Alcotest.test_case "U002 forwarded label" `Quick test_u002_forwarded;
          Alcotest.test_case "U002 val no program uses" `Quick test_u002_unused;
          Alcotest.test_case "U002 unapplied reference" `Quick
            test_u002_unapplied;
          Alcotest.test_case "U002 unbuilt constructor" `Quick
            test_u002_unbuilt_constructor;
          Alcotest.test_case "U002 constructor built by its parser" `Quick
            test_u002_parser_builds;
          Alcotest.test_case "U002 reason form" `Quick test_u002_reason_form;
          Alcotest.test_case "U003 construction is no read" `Quick
            test_u003_construction;
          Alcotest.test_case "U003 pattern read" `Quick test_u003_pattern;
          Alcotest.test_case "U003 punned read" `Quick test_u003_pun;
          Alcotest.test_case "U003 read only from test" `Quick
            test_u003_test_read;
          Alcotest.test_case "U003 with-update" `Quick test_u003_with_update;
          Alcotest.test_case "U003 read in a constrained module" `Quick
            test_u003_constrained_module;
          Alcotest.test_case "U003 mutable never assigned" `Quick
            test_u003_mutable;
          Alcotest.test_case "U003 reason form" `Quick test_u003_reason_form
        ] );
      ( "suppressions",
        [ Alcotest.test_case "valid directive silences" `Quick
            test_suppression_silences;
          Alcotest.test_case "reason is mandatory" `Quick
            test_suppression_needs_reason;
          Alcotest.test_case "unknown rule rejected" `Quick
            test_suppression_unknown_rule;
          Alcotest.test_case "strings are not directives" `Quick
            test_directive_in_string_ignored;
          Alcotest.test_case "multi-rule directive" `Quick
            test_suppression_multi_rule;
          Alcotest.test_case "directives in interfaces" `Quick
            test_suppression_in_mli;
          Alcotest.test_case "directive on the last line" `Quick
            test_suppression_last_line ] );
      ( "summaries",
        [ QCheck_alcotest.to_alcotest qcheck_summary_roundtrip;
          Alcotest.test_case "of_string rejects garbage" `Quick
            test_summary_of_string_rejects_garbage ] );
      ( "baselines",
        [ Alcotest.test_case "multiset subtraction" `Quick
            test_baseline_subtraction ] );
      ( "reports",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "text format" `Quick test_text_format;
          Alcotest.test_case "rule catalogue" `Quick test_catalogue ] ) ]
