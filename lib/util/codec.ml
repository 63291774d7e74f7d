exception Truncated

module Writer = struct
  type t = Buffer.t

  let create ?(initial_capacity = 64) () = Buffer.create initial_capacity

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.u8: out of range";
    Buffer.add_char t (Char.chr v)

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Codec.Writer.u16: out of range";
    Buffer.add_uint16_be t v

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then
      invalid_arg "Codec.Writer.u32: out of range";
    Buffer.add_int32_be t (Int32.of_int v)

  let f64 t v = Buffer.add_int64_be t (Int64.bits_of_float v)
  let bytes t s = Buffer.add_string t s

  let string16 t s =
    if String.length s > 0xFFFF then
      invalid_arg "Codec.Writer.string16: string too long";
    u16 t (String.length s);
    Buffer.add_string t s

  let contents = Buffer.contents
  let clear = Buffer.clear
  let length = Buffer.length
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let need t n = if String.length t.data - t.pos < n then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_be t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_be t.data t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let f64 t =
    need t 8;
    let v = String.get_int64_be t.data t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits v

  let bytes t n =
    if n < 0 then invalid_arg "Codec.Reader.bytes: negative length";
    need t n;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let string16 t =
    let n = u16 t in
    bytes t n
end
