exception Corrupt of string

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let u32 t v =
    for i = 0 to 3 do
      u8 t ((v lsr (8 * i)) land 0xff)
    done

  let u64 t v =
    for i = 0 to 7 do
      u8 t ((v lsr (8 * i)) land 0xff)
    done

  let f64 t v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      u8 t
        (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let string t s =
    u32 t (String.length s);
    Buffer.add_string t s

  let contents t = Buffer.contents t
  let length t = Buffer.length t
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

  let remaining t = String.length t.src - t.pos
end

(* Adler-32. Good enough to catch torn checkpoints; not cryptographic. *)
let crc s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a
