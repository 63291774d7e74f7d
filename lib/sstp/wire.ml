module Codec = Softstate_util.Codec

type child_kind = Leaf | Interior

type child = {
  name : string;
  digest : Digest.t;
  kind : child_kind;
  meta : string list;
}

type msg =
  | Data of {
      path : string;
      version : int;
      payload : string;
      meta : string list;
    }
  | Summary of { root_digest : Digest.t; leaf_count : int }
  | Signatures of { path : string; children : child list }
  | Remove of { path : string }
  | Sig_request of { path : string }
  | Nack of { path : string }
  | Receiver_report of {
      highest_seq : int;
      received : int;
      loss_estimate : float;
    }

type envelope = { seq : int; sent_at : float; msg : msg }

let tag_of = function
  | Data _ -> 1
  | Summary _ -> 2
  | Signatures _ -> 3
  | Remove _ -> 4
  | Sig_request _ -> 5
  | Nack _ -> 6
  | Receiver_report _ -> 7

let encode_digest w d =
  if String.length d <> 16 then invalid_arg "Wire: digest must be 16 bytes";
  Codec.Writer.bytes w d

let rec encode_strings w = function
  | [] -> ()
  | s :: rest ->
      Codec.Writer.string16 w s;
      encode_strings w rest

let encode_meta w meta =
  Codec.Writer.u8 w (List.length meta);
  encode_strings w meta

let rec encode_children w = function
  | [] -> ()
  | c :: rest ->
      Codec.Writer.string16 w c.name;
      encode_digest w c.digest;
      Codec.Writer.u8 w (match c.kind with Leaf -> 0 | Interior -> 1);
      encode_meta w c.meta;
      encode_children w rest

let decode_meta r =
  let n = Codec.Reader.u8 r in
  List.init n (fun _ -> Codec.Reader.string16 r)

let write w env =
  Codec.Writer.u32 w env.seq;
  Codec.Writer.f64 w env.sent_at;
  Codec.Writer.u8 w (tag_of env.msg);
  (match env.msg with
  | Data { path; version; payload; meta } ->
      Codec.Writer.string16 w path;
      Codec.Writer.u32 w version;
      Codec.Writer.string16 w payload;
      encode_meta w meta
  | Summary { root_digest; leaf_count } ->
      encode_digest w root_digest;
      Codec.Writer.u32 w leaf_count
  | Signatures { path; children } ->
      Codec.Writer.string16 w path;
      Codec.Writer.u16 w (List.length children);
      encode_children w children
  | Remove { path } | Sig_request { path } | Nack { path } ->
      Codec.Writer.string16 w path
  | Receiver_report { highest_seq; received; loss_estimate } ->
      Codec.Writer.u32 w highest_seq;
      Codec.Writer.u32 w received;
      Codec.Writer.f64 w loss_estimate)

let encode env =
  let w = Codec.Writer.create () in
  write w env;
  Codec.Writer.contents w

let decode s =
  let r = Codec.Reader.of_string s in
  let seq = Codec.Reader.u32 r in
  let sent_at = Codec.Reader.f64 r in
  let tag = Codec.Reader.u8 r in
  let msg =
    match tag with
    | 1 ->
        let path = Codec.Reader.string16 r in
        let version = Codec.Reader.u32 r in
        let payload = Codec.Reader.string16 r in
        let meta = decode_meta r in
        Data { path; version; payload; meta }
    | 2 ->
        let root_digest = Codec.Reader.bytes r 16 in
        let leaf_count = Codec.Reader.u32 r in
        Summary { root_digest; leaf_count }
    | 3 ->
        let path = Codec.Reader.string16 r in
        let n = Codec.Reader.u16 r in
        let children =
          List.init n (fun _ ->
              let name = Codec.Reader.string16 r in
              let digest = Codec.Reader.bytes r 16 in
              let kind =
                match Codec.Reader.u8 r with
                | 0 -> Leaf
                | 1 -> Interior
                | k -> failwith (Printf.sprintf "Wire: bad child kind %d" k)
              in
              let meta = decode_meta r in
              { name; digest; kind; meta })
        in
        Signatures { path; children }
    | 4 -> Remove { path = Codec.Reader.string16 r }
    | 5 -> Sig_request { path = Codec.Reader.string16 r }
    | 6 -> Nack { path = Codec.Reader.string16 r }
    | 7 ->
        let highest_seq = Codec.Reader.u32 r in
        let received = Codec.Reader.u32 r in
        let loss_estimate = Codec.Reader.f64 r in
        Receiver_report { highest_seq; received; loss_estimate }
    | t -> failwith (Printf.sprintf "Wire: unknown message tag %d" t)
  in
  { seq; sent_at; msg }

(* 28 bytes of UDP/IPv4 header per packet. *)
let header_bits = 224

let sizer () =
  let w = Codec.Writer.create ~initial_capacity:256 () in
  fun env ->
    Codec.Writer.clear w;
    write w env;
    (8 * Codec.Writer.length w) + header_bits

let is_feedback = function
  | Sig_request _ | Nack _ | Receiver_report _ -> true
  | Data _ | Summary _ | Signatures _ | Remove _ -> false

let describe = function
  | Data { path; _ } -> "data:" ^ path
  | Summary _ -> "summary"
  | Signatures { path; _ } -> "signatures:" ^ path
  | Remove { path } -> "remove:" ^ path
  | Sig_request { path } -> "sig_request:" ^ path
  | Nack { path } -> "nack:" ^ path
  | Receiver_report _ -> "receiver_report"
