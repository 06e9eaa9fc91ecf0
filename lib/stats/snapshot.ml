type entry = { e_key : string; e_count : int; e_total : float; e_mean : float }
type t = entry array

let capture ?(filter = fun _ -> true) registry =
  let acc = ref [] in
  Registry.iter registry (fun stat ->
      let key = Stat.name stat in
      if filter key then begin
        let w = Stat.welford stat in
        acc :=
          {
            e_key = key;
            e_count = Welford.count w;
            e_total = Welford.total w;
            e_mean = Welford.mean w;
          }
          :: !acc
      end);
  (* Registry.iter runs in name order; restore it *)
  Array.of_list (List.rev !acc)

let keys t = Array.to_list (Array.map (fun e -> e.e_key) t)

let find t key =
  let n = Array.length t in
  let rec go i = if i >= n then None
    else if t.(i).e_key = key then Some t.(i)
    else go (i + 1)
  in
  go 0

(* The instance-name prefixes of the components shared verbatim between
   Patsy and PFS (see VALIDATION.md). Device models (diskN, busN) and
   the client-caching server are engine- or experiment-specific. *)
let policy_prefixes = [ "cache."; "driver"; "lfs"; "ffs"; "jfs"; "simlayout" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let policy_visible key =
  List.exists (fun prefix -> starts_with ~prefix key) policy_prefixes

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

let add_json b t =
  Buffer.add_char b '[';
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"key\":\"%s\",\"count\":%d,\"total\":%s,\"mean\":%s}"
           (Json.escape e.e_key) e.e_count (json_float e.e_total)
           (json_float e.e_mean)))
    t;
  Buffer.add_char b ']'

let to_json t =
  let b = Buffer.create 1024 in
  add_json b t;
  Buffer.contents b

let pp ppf t =
  Array.iter
    (fun e ->
      Format.fprintf ppf "%s: n=%d total=%g mean=%g@." e.e_key e.e_count
        e.e_total e.e_mean)
    t
