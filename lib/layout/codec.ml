exception Corrupt of string

(* Unaligned native-endian stores; the writer swaps on big-endian hosts
   so the image is little-endian everywhere. Applied directly, the
   primitives take their int32/int64 unboxed: a field store allocates
   nothing. *)
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Adler-32. Good enough to catch torn checkpoints; not cryptographic.
   The sums are reduced once per 5,552 bytes, the longest run after
   which [s] still fits in 32 bits (zlib's NMAX); reducing late gives
   the per-byte reduction's values. *)
let adler32 b len =
  let a = ref 1 and s = ref 0 and i = ref 0 in
  while !i < len do
    let stop = Stdlib.min len (!i + 5552) in
    for j = !i to stop - 1 do
      a := !a + Char.code (Bytes.unsafe_get b j);
      s := !s + !a
    done;
    a := !a mod 65521;
    s := !s mod 65521;
    i := stop
  done;
  (!s lsl 16) lor !a

module Writer = struct
  type t = { mutable buf : bytes; mutable pos : int }

  let create ~capacity = { buf = Bytes.create capacity; pos = 0 }

  (* Room for [n] more bytes; returns the offset they go at. *)
  let reserve t n =
    let pos = t.pos in
    if pos + n > Bytes.length t.buf then begin
      let grown =
        Bytes.create (Stdlib.max (pos + n) (2 * Bytes.length t.buf))
      in
      Bytes.blit t.buf 0 grown 0 pos;
      t.buf <- grown
    end;
    t.pos <- pos + n;
    pos

  let u8 t v =
    let p = reserve t 1 in
    Bytes.unsafe_set t.buf p (Char.unsafe_chr (v land 0xff))

  let u32 t v =
    let p = reserve t 4 in
    let x = Int32.of_int v in
    set32 t.buf p (if Sys.big_endian then swap32 x else x)

  (* The top bit of the 64 is always 0: a negative int is stored as its
     63-bit two's complement, which {!Reader.u64} reads back exactly. *)
  let u64 t v =
    let p = reserve t 8 in
    let x = Int64.logand (Int64.of_int v) Int64.max_int in
    set64 t.buf p (if Sys.big_endian then swap64 x else x)

  let f64 t v =
    let p = reserve t 8 in
    let x = Int64.bits_of_float v in
    set64 t.buf p (if Sys.big_endian then swap64 x else x)

  let string t s =
    let n = String.length s in
    u32 t n;
    let p = reserve t n in
    Bytes.blit_string s 0 t.buf p n

  let length t = t.pos
  let contents t = Bytes.sub_string t.buf 0 t.pos
  let crc t = adler32 t.buf t.pos

  let blocks t ~block_bytes =
    let n = (t.pos + block_bytes - 1) / block_bytes * block_bytes in
    let b =
      if n = Bytes.length t.buf then t.buf
      else begin
        let b = Bytes.create n in
        Bytes.blit t.buf 0 b 0 t.pos;
        b
      end
    in
    Bytes.fill b t.pos (n - t.pos) '\000';
    t.buf <- Bytes.empty;
    t.pos <- 0;
    b
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }

  let need t n =
    if t.pos + n > String.length t.src then
      raise (Corrupt (Printf.sprintf "truncated at %d (+%d)" t.pos n))

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    let v = ref 0 in
    for i = 0 to 3 do
      v := !v lor (u8 t lsl (8 * i))
    done;
    !v

  let u64 t =
    let v = ref 0 in
    for i = 0 to 7 do
      v := !v lor (u8 t lsl (8 * i))
    done;
    !v

  let f64 t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits :=
        Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let n = u32 t in
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let count t ~max what =
    let n = u32 t in
    if n > max then
      raise (Corrupt (Printf.sprintf "%s count %d exceeds %d" what n max));
    n

  let remaining t = String.length t.src - t.pos
end

let crc s = adler32 (Bytes.unsafe_of_string s) (String.length s)
