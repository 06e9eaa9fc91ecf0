type mode = Read_only | Write_only | Read_write

type op =
  | Open of { path : string; mode : mode }
  | Close of { path : string }
  | Read of { path : string; offset : int; bytes : int }
  | Write of { path : string; offset : int; bytes : int }
  | Stat of { path : string }
  | Delete of { path : string }
  | Truncate of { path : string; size : int }
  | Mkdir of { path : string }
  | Rmdir of { path : string }

type t = { time : float; client : int; op : op }

let no_time = -1.
let has_time t = t.time >= 0.

(* [time] is a boxed field of this mixed record; copying it from one
   prototype makes every untimed record point at the same box. *)
let untimed = { time = no_time; client = 0; op = Mkdir { path = "" } }

let make ~time ~client op =
  if time = no_time then { untimed with client; op } else { time; client; op }

let path t =
  match t.op with
  | Open { path; _ }
  | Close { path }
  | Read { path; _ }
  | Write { path; _ }
  | Stat { path }
  | Delete { path }
  | Truncate { path; _ }
  | Mkdir { path }
  | Rmdir { path } -> path

let op_name t =
  match t.op with
  | Open _ -> "open"
  | Close _ -> "close"
  | Read _ -> "read"
  | Write _ -> "write"
  | Stat _ -> "stat"
  | Delete _ -> "delete"
  | Truncate _ -> "truncate"
  | Mkdir _ -> "mkdir"
  | Rmdir _ -> "rmdir"

let bytes_moved t =
  match t.op with
  | Read { bytes; _ } | Write { bytes; _ } -> bytes
  | Open _ | Close _ | Stat _ | Delete _ | Truncate _ | Mkdir _ | Rmdir _ -> 0

let pp ppf t =
  let time_str = if has_time t then Printf.sprintf "%.6f" t.time else "?" in
  match t.op with
  | Open { path; mode } ->
    Format.fprintf ppf "%s c%d open %s %s" time_str t.client path
      (match mode with
      | Read_only -> "r"
      | Write_only -> "w"
      | Read_write -> "rw")
  | Close { path } -> Format.fprintf ppf "%s c%d close %s" time_str t.client path
  | Read { path; offset; bytes } ->
    Format.fprintf ppf "%s c%d read %s %d %d" time_str t.client path offset bytes
  | Write { path; offset; bytes } ->
    Format.fprintf ppf "%s c%d write %s %d %d" time_str t.client path offset
      bytes
  | Stat { path } -> Format.fprintf ppf "%s c%d stat %s" time_str t.client path
  | Delete { path } ->
    Format.fprintf ppf "%s c%d delete %s" time_str t.client path
  | Truncate { path; size } ->
    Format.fprintf ppf "%s c%d truncate %s %d" time_str t.client path size
  | Mkdir { path } -> Format.fprintf ppf "%s c%d mkdir %s" time_str t.client path
  | Rmdir { path } -> Format.fprintf ppf "%s c%d rmdir %s" time_str t.client path
