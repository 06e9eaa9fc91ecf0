type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {1 Reading} *)

exception Bad of int * string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Bad (!pos, what)) in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do incr pos done
  in
  (* the next non-blank character, not consumed *)
  let peek () =
    skip_ws ();
    if !pos < n then s.[!pos] else fail "unexpected end"
  in
  let eat c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let next () =
    if !pos >= n then fail "unterminated string";
    incr pos;
    s.[!pos - 1]
  in
  let word w v =
    let l = String.length w in
    if !pos + l > n || String.sub s !pos l <> w then fail "bad literal";
    pos := !pos + l;
    v
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
        let e = next () in
        match (e, String.index_opt "\"\\/bfnrt" e) with
        | 'u', _ when !pos + 4 <= n -> (
          match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some u ->
            pos := !pos + 4;
            Buffer.add_utf_8_uchar b
              (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep);
            go ()
          | None -> fail "bad escape")
        | _, Some i ->
          Buffer.add_char b "\"\\/\b\012\n\r\t".[i];
          go ()
        | _ -> fail "bad escape")
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad value"
  in
  (* [seq close item]: comma-separated items up to [close] *)
  let seq close item =
    incr pos;
    let rec go acc =
      let acc = item () :: acc in
      match peek () with
      | ',' -> incr pos; go acc
      | c when c = close -> incr pos; List.rev acc
      | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
    in
    if peek () <> close then go [] else (incr pos; [])
  in
  let rec value () =
    match peek () with
    | '{' ->
      Obj
        (seq '}' (fun () ->
             let k = str () in
             eat ':';
             (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> num ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad (at, what) -> Error (Printf.sprintf "%s at byte %d" what at)

let num x =
  if Float.is_finite x then Num (float_of_string (Printf.sprintf "%.6g" x))
  else Null

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let set k v = function
  | Obj fields when List.mem_assoc k fields ->
    Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) fields)
  | Obj fields -> Obj (fields @ [ (k, v) ])
  | _ -> Obj [ (k, v) ]

(* {1 Writing} *)

(* Integers print as integers; anything else in the fewest digits
   that read back as the same float. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (Float.to_int f)
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

(* Quote, backslash and every control character are escaped; every
   other byte is kept as it is. *)
let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [items] between [first] and [last], [sep] between two of them *)
let add_seq b first sep last add items =
  Buffer.add_string b first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      add x)
    items;
  Buffer.add_string b last

let add_member b add (k, v) =
  add_quoted b k;
  Buffer.add_string b ": ";
  add v

let rec add_compact b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> add_quoted b s
  | Arr l -> add_seq b "[" ", " "]" (add_compact b) l
  | Obj fields -> add_seq b "{" ", " "}" (add_member b (add_compact b)) fields

let compact v =
  let b = Buffer.create 256 in
  add_compact b v;
  Buffer.contents b

let to_string v =
  let b = Buffer.create 4096 in
  (* one member per line; a non-empty array member, one element per line *)
  let top = function
    | Arr (_ :: _ as l) ->
      add_seq b "[\n    " ",\n    " "\n  ]" (add_compact b) l
    | v -> add_compact b v
  in
  (match v with
  | Obj (_ :: _ as fields) ->
    add_seq b "{\n  " ",\n  " "\n}" (add_member b top) fields
  | v -> add_compact b v);
  Buffer.add_char b '\n';
  Buffer.contents b

let update_file path f =
  let text =
    if not (Sys.file_exists path) then "{}"
    else In_channel.with_open_bin path In_channel.input_all
  in
  match parse text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok doc ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (to_string (f doc)));
    Ok ()
