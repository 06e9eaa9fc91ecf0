(* Readers for the Linux /proc files the serve workloads measure the
   server process through: per-thread CPU and peak resident memory. *)

(* CPU time in clock ticks (see [--clk-tck]). *)
type cpu = { utime : int; stime : int }

let total c = c.utime + c.stime
let diff a b = { utime = a.utime - b.utime; stime = a.stime - b.stime }
let zero = { utime = 0; stime = 0 }

(* [parse_stat line] reads [(comm, cpu)] from a /proc/<pid>/stat or
   /proc/<pid>/task/<tid>/stat line. [comm] is parenthesised and may
   itself hold spaces and parentheses, so it runs from the first ['(']
   to the {e last} [')']; the fields after it are space-separated, with
   utime and stime the 12th and 13th (fields 14 and 15 of proc(5)). *)
let parse_stat line =
  match (String.index_opt line '(', String.rindex_opt line ')') with
  | Some i, Some j when j > i -> (
    let comm = String.sub line (i + 1) (j - i - 1) in
    let rest =
      String.sub line (j + 1) (String.length line - j - 1)
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
    in
    match List.filteri (fun k _ -> k = 11 || k = 12) rest with
    | [ u; s ] -> (
      match (int_of_string_opt u, int_of_string_opt (String.trim s)) with
      | Some utime, Some stime -> Ok (comm, { utime; stime })
      | _ -> Error "non-numeric utime/stime")
    | _ -> Error "too few fields")
  | _ -> Error "no (comm)"

(* The whole file, read chunkwise: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let stat_exn path =
  match parse_stat (read_file path) with
  | Ok (_, c) -> c
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let process_cpu pid = stat_exn (Printf.sprintf "/proc/%d/stat" pid)

(* Every live thread of [pid]: [(tid, cpu)], ascending tid. *)
let task_cpus pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun s ->
         match int_of_string_opt s with
         | Some tid -> (
           match stat_exn (Printf.sprintf "%s/%d/stat" dir tid) with
           | c -> Some (tid, c)
           | exception Sys_error _ -> None (* the thread just exited *))
         | None -> None)
  |> List.sort compare

(* [status_kb text key] reads a "Key:   N kB" line of /proc/<pid>/status. *)
let status_kb text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           String.sub line (i + 1) (String.length line - i - 1)
           |> String.map (fun c -> if c = '\t' then ' ' else c)
           |> String.split_on_char ' '
           |> List.filter (fun s -> s <> "")
           |> (function n :: _ -> int_of_string_opt n | [] -> None)
         | _ -> None)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid_or_self =
  let text = read_file (Printf.sprintf "/proc/%s/status" pid_or_self) in
  match status_kb text "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"
