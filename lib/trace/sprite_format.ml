exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_client line w =
  if String.length w < 2 || w.[0] <> 'c' then fail line "bad client field %S" w
  else
    match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
    | Some c -> c
    | None -> fail line "bad client field %S" w

let parse_int line w =
  match int_of_string_opt w with
  | Some v -> v
  | None -> fail line "bad integer %S" w

let parse_line ~line s =
  let s = String.trim s in
  if s = "" || s.[0] = '#' then None
  else begin
    let time, rest =
      match split_ws s with
      | tw :: rest ->
        let time =
          if tw = "?" then Record.no_time
          else
            match float_of_string_opt tw with
            | Some v -> v
            | None -> fail line "bad time %S" tw
        in
        (time, rest)
      | [] -> fail line "empty record"
    in
    let client, rest =
      match rest with
      | cw :: rest -> (parse_client line cw, rest)
      | [] -> fail line "missing client"
    in
    let op =
      match rest with
      | [ "open"; path; mode ] ->
        let mode =
          match mode with
          | "r" -> Record.Read_only
          | "w" -> Record.Write_only
          | "rw" -> Record.Read_write
          | m -> fail line "bad open mode %S" m
        in
        Record.Open { path; mode }
      | [ "close"; path ] -> Record.Close { path }
      | [ "read"; path; off; len ] ->
        Record.Read { path; offset = parse_int line off; bytes = parse_int line len }
      | [ "write"; path; off; len ] ->
        Record.Write
          { path; offset = parse_int line off; bytes = parse_int line len }
      | [ "stat"; path ] -> Record.Stat { path }
      | [ "delete"; path ] -> Record.Delete { path }
      | [ "truncate"; path; size ] ->
        Record.Truncate { path; size = parse_int line size }
      | [ "mkdir"; path ] -> Record.Mkdir { path }
      | [ "rmdir"; path ] -> Record.Rmdir { path }
      | op :: _ -> fail line "unknown or malformed op %S" op
      | [] -> fail line "missing op"
    in
    Some (Record.make ~time ~client op)
  end

let print_record buf r =
  Buffer.add_string buf (Format.asprintf "%a" Record.pp r);
  Buffer.add_char buf '\n'

let of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) -> parse_line ~line:i l)
  |> Array.of_list

let to_string records =
  let buf = Buffer.create 4096 in
  Array.iter (print_record buf) records;
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
