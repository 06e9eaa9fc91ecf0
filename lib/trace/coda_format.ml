exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let split_ws s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let path_of_fid fid line =
  match String.index_opt fid ':' with
  | Some i ->
    let vol = String.sub fid 0 i in
    let vnode = String.sub fid (i + 1) (String.length fid - i - 1) in
    if vol = "" || vnode = "" then fail line "bad fid %S" fid
    else Printf.sprintf "/coda/%s/%s" vol vnode
  | None -> fail line "bad fid %S" fid

let parse_int line w =
  match int_of_string_opt w with
  | Some v -> v
  | None -> fail line "bad integer %S" w

let parse_line ~line s =
  let s = String.trim s in
  if s = "" || s.[0] = '#' then None
  else begin
    match split_ws s with
    | tw :: cw :: op :: fid :: args ->
      let time =
        if tw = "?" then Record.no_time
        else
          match float_of_string_opt tw with
          | Some v -> v
          | None -> fail line "bad time %S" tw
      in
      let client = parse_int line cw in
      let path = path_of_fid fid line in
      let op =
        match (op, args) with
        | "OPEN", [ "r" ] -> Record.Open { path; mode = Record.Read_only }
        | "OPEN", [ "w" ] -> Record.Open { path; mode = Record.Write_only }
        | "OPEN", [ "rw" ] -> Record.Open { path; mode = Record.Read_write }
        | "CLOSE", [] -> Record.Close { path }
        | "FETCH", [ off; len ] ->
          Record.Read
            { path; offset = parse_int line off; bytes = parse_int line len }
        | "STORE", [ off; len ] ->
          Record.Write
            { path; offset = parse_int line off; bytes = parse_int line len }
        | "GETATTR", [] -> Record.Stat { path }
        | "REMOVE", [] -> Record.Delete { path }
        | "TRUNCATE", [ size ] ->
          Record.Truncate { path; size = parse_int line size }
        | "MKDIR", [] -> Record.Mkdir { path }
        | "RMDIR", [] -> Record.Rmdir { path }
        | _ -> fail line "unknown or malformed op %S" op
      in
      Some (Record.make ~time ~client op)
    | _ -> fail line "short record"
  end

let of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) -> parse_line ~line:i l)
  |> Array.of_list

(* Turn a path back into a fid: /coda/<vol>/<vnode> round-trips; other
   paths hash deterministically into a synthetic volume. *)
let fid_of_path path =
  match String.split_on_char '/' path with
  | [ ""; "coda"; vol; vnode ] -> Printf.sprintf "%s:%s" vol vnode
  | _ -> Printf.sprintf "synth:%d" (Hashtbl.hash path land 0xffffff)

let emit buf (r : Record.t) =
  let time_str =
    if Record.has_time r then Printf.sprintf "%.6f" r.Record.time else "?"
  in
  let fid = fid_of_path (Record.path r) in
  let line =
    match r.Record.op with
    | Record.Open { mode; _ } ->
      Printf.sprintf "%s %d OPEN %s %s" time_str r.Record.client fid
        (match mode with
        | Record.Read_only -> "r"
        | Record.Write_only -> "w"
        | Record.Read_write -> "rw")
    | Record.Close _ -> Printf.sprintf "%s %d CLOSE %s" time_str r.Record.client fid
    | Record.Read { offset; bytes; _ } ->
      Printf.sprintf "%s %d FETCH %s %d %d" time_str r.Record.client fid offset
        bytes
    | Record.Write { offset; bytes; _ } ->
      Printf.sprintf "%s %d STORE %s %d %d" time_str r.Record.client fid offset
        bytes
    | Record.Stat _ -> Printf.sprintf "%s %d GETATTR %s" time_str r.Record.client fid
    | Record.Delete _ -> Printf.sprintf "%s %d REMOVE %s" time_str r.Record.client fid
    | Record.Truncate { size; _ } ->
      Printf.sprintf "%s %d TRUNCATE %s %d" time_str r.Record.client fid size
    | Record.Mkdir _ -> Printf.sprintf "%s %d MKDIR %s" time_str r.Record.client fid
    | Record.Rmdir _ -> Printf.sprintf "%s %d RMDIR %s" time_str r.Record.client fid
  in
  Buffer.add_string buf line;
  Buffer.add_char buf '\n'

let to_string records =
  let buf = Buffer.create 4096 in
  Array.iter (emit buf) records;
  Buffer.contents buf

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

let save path records =
  let oc = open_out path in
  output_string oc (to_string records);
  close_out oc
