type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = Real of bytes | Sim of int | Gather of gather | Slice of slice
and gather = { g_total : int; g_segs : (int * t) list }
and slice = { s_buf : buf; s_off : int; s_len : int; s_cell : cell option }
and cell = { c_slot : int; mutable c_rc : int; c_free : cell -> unit }

let real n =
  if n < 0 then invalid_arg "Data.real: negative length";
  Real (Bytes.make n '\000')

let sim n =
  if n < 0 then invalid_arg "Data.sim: negative length";
  Sim n

let of_string s = Real (Bytes.of_string s)

let length = function
  | Real b -> Bytes.length b
  | Sim n -> n
  | Gather g -> g.g_total
  | Slice s -> s.s_len

let rec is_real = function
  | Real _ | Slice _ -> true
  | Sim _ -> false
  | Gather g -> List.for_all (fun (_, s) -> is_real s) g.g_segs

(* {2 Reference counting}

   Only arena-backed slices carry a cell; everything else is managed by
   the GC and these are no-ops. A component that buffers a payload past
   the call that handed it over (the LFS open segment, a flush snapshot
   in flight) must [retain] it and [release] it when done; the owner of
   record (the cache) releases when the block leaves the cache. [sub]
   returns a {e borrowed} view sharing the cell without a count. *)

let rec retain = function
  | Slice { s_cell = Some c; _ } -> c.c_rc <- c.c_rc + 1
  | Gather g -> List.iter (fun (_, s) -> retain s) g.g_segs
  | Real _ | Sim _ | Slice { s_cell = None; _ } -> ()

let rec release = function
  | Slice { s_cell = Some c; _ } ->
    if c.c_rc > 0 then begin
      c.c_rc <- c.c_rc - 1;
      if c.c_rc = 0 then c.c_free c
    end
  | Gather g -> List.iter (fun (_, s) -> release s) g.g_segs
  | Real _ | Sim _ | Slice { s_cell = None; _ } -> ()

(* byte <-> slab copies. The stdlib has no blit between [bytes] and a
   char bigarray, so these move a word per step through the compiler's
   unboxed 64-bit load/store primitives (native byte order on both
   sides, so bytes land unchanged) and finish the tail a byte at a
   time. The slab parameter must stay the concrete [buf]: left
   polymorphic, every access compiles to a call into the runtime's
   generic bigarray accessor. [ba_blit] between two slabs uses the
   Bigarray primitive (memmove under the hood). Callers bounds-check. *)

external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external buf_get64u : buf -> int -> int64 = "%caml_bigstring_get64u"
external buf_set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"

let ba_to_bytes (src : buf) soff dst doff len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    bytes_set64u dst (doff + !i) (buf_get64u src (soff + !i));
    i := !i + 8
  done;
  for i = words to len - 1 do
    Bytes.unsafe_set dst (doff + i) (Bigarray.Array1.unsafe_get src (soff + i))
  done

let ba_of_bytes src soff (dst : buf) doff len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    buf_set64u dst (doff + !i) (bytes_get64u src (soff + !i));
    i := !i + 8
  done;
  for i = words to len - 1 do
    Bigarray.Array1.unsafe_set dst (doff + i) (Bytes.unsafe_get src (soff + i))
  done

let ba_blit src soff dst doff len =
  if len > 0 then
    Bigarray.Array1.(blit (sub src soff len) (sub dst doff len))

let ba_fill_zero dst doff len =
  if len > 0 then Bigarray.Array1.(fill (sub dst doff len) '\000')

(* Build a scatter-gather list from payloads laid end to end. Nested
   gathers are flattened, zero-length segments dropped, and degenerate
   results normalised (no segments -> [Sim 0], one segment -> that
   segment, all-simulated -> [Sim total]), so a [Gather] value always
   holds >= 2 segments and at least one real buffer. *)
let gather ts =
  let rec flatten off acc = function
    | [] -> (off, acc)
    | t :: rest -> (
      match t with
      | Gather g ->
        let acc =
          List.fold_left (fun acc (o, s) -> (off + o, s) :: acc) acc g.g_segs
        in
        flatten (off + g.g_total) acc rest
      | (Real _ | Sim _ | Slice _) as s ->
        flatten (off + length s) ((off, s) :: acc) rest)
  in
  let total, rev = flatten 0 [] ts in
  let segs = List.filter (fun (_, s) -> length s > 0) (List.rev rev) in
  match segs with
  | [] -> Sim total
  | [ (_, s) ] when length s = total -> s
  | segs ->
    if List.for_all (fun (_, s) -> not (is_real s)) segs then Sim total
    else Gather { g_total = total; g_segs = segs }

let check_range what t pos len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg (Printf.sprintf "Data.%s: range [%d, %d) of %d" what pos
                   (pos + len) (length t))

let rec sub t ~pos ~len =
  check_range "sub" t pos len;
  match t with
  | Real b -> Real (Bytes.sub b pos len)
  (* a full-range sub of simulated data is the value itself — [Sim] is
     immutable, so sharing is safe, and replay's block-aligned I/O hits
     this on nearly every operation *)
  | Sim n -> if len = n then t else Sim len
  (* a sub of a slice is a narrower view of the same slab cell: no copy,
     no refcount — a borrow, valid while the parent is live *)
  | Slice s -> Slice { s with s_off = s.s_off + pos; s_len = len }
  | Gather g ->
    let lo = pos and hi = pos + len in
    gather
      (List.filter_map
         (fun (o, s) ->
           let s_lo = Stdlib.max lo o and s_hi = Stdlib.min hi (o + length s) in
           if s_hi <= s_lo then None
           else Some (sub s ~pos:(s_lo - o) ~len:(s_hi - s_lo)))
         g.g_segs)

let rec blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range "blit(src)" src src_pos len;
  check_range "blit(dst)" dst dst_pos len;
  match (src, dst) with
  | Real s, Real d -> Bytes.blit s src_pos d dst_pos len
  | Real s, Slice d -> ba_of_bytes s src_pos d.s_buf (d.s_off + dst_pos) len
  | Slice s, Real d -> ba_to_bytes s.s_buf (s.s_off + src_pos) d dst_pos len
  | Slice s, Slice d ->
    ba_blit s.s_buf (s.s_off + src_pos) d.s_buf (d.s_off + dst_pos) len
  | Sim _, Real d -> Bytes.fill d dst_pos len '\000'
  | Sim _, Slice d -> ba_fill_zero d.s_buf (d.s_off + dst_pos) len
  | Gather g, _ ->
    List.iter
      (fun (o, s) ->
        let lo = Stdlib.max src_pos o
        and hi = Stdlib.min (src_pos + len) (o + length s) in
        if hi > lo then
          blit ~src:s ~src_pos:(lo - o) ~dst ~dst_pos:(dst_pos + lo - src_pos)
            ~len:(hi - lo))
      g.g_segs
  | (Real _ | Sim _ | Slice _), Gather g ->
    List.iter
      (fun (o, s) ->
        let lo = Stdlib.max dst_pos o
        and hi = Stdlib.min (dst_pos + len) (o + length s) in
        if hi > lo then
          blit ~src ~src_pos:(src_pos + lo - dst_pos) ~dst:s ~dst_pos:(lo - o)
            ~len:(hi - lo))
      g.g_segs
  | (Real _ | Sim _ | Slice _), Sim _ -> ()

let concat ts =
  let total = List.fold_left (fun n t -> n + length t) 0 ts in
  if List.for_all is_real ts then begin
    let out = Real (Bytes.create total) in
    let pos = ref 0 in
    List.iter
      (fun t ->
        let len = length t in
        blit ~src:t ~src_pos:0 ~dst:out ~dst_pos:!pos ~len;
        pos := !pos + len)
      ts;
    out
  end
  else Sim total

let to_string t =
  match t with
  | Real b -> Bytes.to_string b
  | Sim n -> String.make n '\000'
  | Gather _ | Slice _ ->
    let n = length t in
    let out = Bytes.make n '\000' in
    blit ~src:t ~src_pos:0 ~dst:(Real out) ~dst_pos:0 ~len:n;
    Bytes.unsafe_to_string out

(* Deep-copy any slab-backed payload onto the GC heap: device stores
   keep sector contents past the request, and must not alias arena
   cells that will be recycled. [Real]/[Sim] pass through untouched. *)
let rec detach t =
  match t with
  | Real _ | Sim _ -> t
  | Slice _ -> Real (Bytes.unsafe_of_string (to_string t))
  | Gather g ->
    if List.exists (fun (_, s) -> match s with Slice _ -> true | _ -> false)
         g.g_segs
    then Gather { g with g_segs = List.map (fun (o, s) -> (o, detach s)) g.g_segs }
    else t

let copy_seconds ~rate_bytes_per_sec len =
  if rate_bytes_per_sec <= 0. then 0.
  else float_of_int len /. rate_bytes_per_sec
