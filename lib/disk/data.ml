type t = Real of bytes | Sim of int | Gather of gather
and gather = { g_total : int; g_segs : (int * t) list }

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

let rec is_real = function
  | Real _ -> true
  | Sim _ -> false
  | Gather g -> List.for_all (fun (_, s) -> is_real s) g.g_segs

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
      | (Real _ | Sim _) as s -> flatten (off + length s) ((off, s) :: acc) rest)
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
  (* a full-range sub is the value itself: payloads are never written
     once handed over, so sharing is safe, and block-aligned I/O hits
     this on nearly every operation *)
  | Real b -> if len = Bytes.length b then t else Real (Bytes.sub b pos len)
  | Sim n -> if len = n then t else Sim len
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
  | Sim _, Real d -> Bytes.fill d dst_pos len '\000'
  | Gather g, _ ->
    List.iter
      (fun (o, s) ->
        let lo = Stdlib.max src_pos o
        and hi = Stdlib.min (src_pos + len) (o + length s) in
        if hi > lo then
          blit ~src:s ~src_pos:(lo - o) ~dst ~dst_pos:(dst_pos + lo - src_pos)
            ~len:(hi - lo))
      g.g_segs
  | (Real _ | Sim _), Gather g ->
    List.iter
      (fun (o, s) ->
        let lo = Stdlib.max dst_pos o
        and hi = Stdlib.min (dst_pos + len) (o + length s) in
        if hi > lo then
          blit ~src ~src_pos:(src_pos + lo - dst_pos) ~dst:s ~dst_pos:(lo - o)
            ~len:(hi - lo))
      g.g_segs
  | (Real _ | Sim _), Sim _ -> ()

let to_string t =
  match t with
  | Real b -> Bytes.to_string b
  | Sim n -> String.make n '\000'
  | Gather _ ->
    let n = length t in
    let out = Bytes.make n '\000' in
    blit ~src:t ~src_pos:0 ~dst:(Real out) ~dst_pos:0 ~len:n;
    Bytes.unsafe_to_string out

let copy_seconds ~rate_bytes_per_sec len =
  if rate_bytes_per_sec <= 0. then 0.
  else float_of_int len /. rate_bytes_per_sec
