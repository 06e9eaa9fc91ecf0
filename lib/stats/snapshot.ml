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
let policy_prefixes = [ "cache."; "driver"; "lfs" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let policy_visible key =
  List.exists (fun prefix -> starts_with ~prefix key) policy_prefixes

let to_json t =
  let entry e =
    Json.Obj
      [
        ("key", Json.Str e.e_key);
        ("count", Json.Num (float_of_int e.e_count));
        ("total", Json.Num e.e_total);
        ("mean", Json.Num e.e_mean);
      ]
  in
  Json.Arr (Array.to_list (Array.map entry t))

let pp ppf t =
  Array.iter
    (fun e ->
      Format.fprintf ppf "%s: n=%d total=%g mean=%g@." e.e_key e.e_count
        e.e_total e.e_mean)
    t
