(* pfs: the on-line cut-and-paste file system.

   Three subcommands:
     pfs shell IMAGE    — serve an image in-process and drive it with a
                          small shell (the default when no subcommand is
                          given);
     pfs serve IMAGE    — the scale-out multi-client server: shards
                          behind a Unix/TCP listening socket;
     pfs loadgen IMAGE  — fork a server plus N client processes, hammer
                          open/read/write/close, report ops/s and
                          p50/p99/p999 latency into a JSON report.

   Shell commands (one per line on stdin, or via --command):
     mkdir PATH | ls PATH | write PATH TEXT | cat PATH | rm PATH |
     rmdir PATH | mv SRC DST | ln TARGET LINK | stat PATH | statfs |
     sync | help | quit *)

module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Client = Capfs.Client
module Errno = Capfs_core.Errno
module Pfs = Capfs_pfs.Pfs
module Wire = Capfs_pfs.Wire
module Server = Capfs_pfs.Server
module CC = Capfs_pfs.Cached_client
module Loadgen = Capfs_pfs.Loadgen
module Json = Capfs_stats.Json

let config_of image args =
  Pfs.Config.of_args ~base:(Pfs.Config.make ~image ()) args

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* {1 Shell} *)

let help_text =
  "commands: mkdir P | ls P | write P TEXT | cat P | rm P | rmdir P | \
   mv A B | ln TARGET LINK | stat P | statfs | sync | help | quit"

let exec_command t line =
  let client = t.Pfs.client in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | [ "help" ] -> print_endline help_text
  | [ "mkdir"; p ] -> Client.mkdir_exn client p
  | [ "ls"; p ] ->
    List.iter
      (fun e ->
        Printf.printf "%c %s\n"
          (match e.Capfs.Dir.kind with
          | Capfs_layout.Inode.Directory -> 'd'
          | Capfs_layout.Inode.Symlink -> 'l'
          | Capfs_layout.Inode.Multimedia -> 'm'
          | Capfs_layout.Inode.Regular -> '-')
          e.Capfs.Dir.name)
      (Client.readdir_exn client p)
  | "write" :: p :: rest ->
    let text = String.concat " " rest in
    Client.write_exn client ~client:0 p ~offset:0 (Data.of_string text);
    Client.truncate_exn client p ~size:(String.length text)
  | [ "cat"; p ] ->
    let st = Client.stat_exn client p in
    let d =
      Client.read_exn client ~client:0 p ~offset:0 ~bytes:st.Client.st_size
    in
    print_endline (Data.to_string d)
  | [ "rm"; p ] -> Client.delete_exn client p
  | [ "rmdir"; p ] -> Client.rmdir_exn client p
  | [ "mv"; a; b ] -> Client.rename_exn client ~src:a ~dst:b
  | [ "ln"; target; link ] -> Client.symlink_exn client ~target link
  | [ "stat"; p ] ->
    let st = Client.stat_exn client p in
    Printf.printf "ino=%d size=%d nlink=%d mtime=%.3f\n" st.Client.st_ino
      st.Client.st_size st.Client.st_nlink st.Client.st_mtime
  | [ "statfs" ] ->
    let fs = Client.fsys client in
    let layout = fs.Capfs.Fsys.layout in
    Printf.printf "%s: %d blocks, %d free\n"
      layout.Capfs_layout.Layout.l_name
      layout.Capfs_layout.Layout.total_blocks
      (layout.Capfs_layout.Layout.free_blocks ())
  | [ "sync" ] -> Client.sync_exn client
  | cmd :: _ -> Printf.printf "unknown command %S (try help)\n" cmd

let run_line t line =
  ignore
    (Sched.spawn t.Pfs.sched (fun () ->
         (* every failure mode is one typed errno now *)
         try exec_command t line
         with Errno.Error e ->
           Printf.printf "error: %s\n" (Errno.to_string e)));
  Sched.run t.Pfs.sched

let shell_main image size_mb sets commands =
  let cfg =
    match config_of image (Printf.sprintf "size-mb=%d" size_mb :: sets) with
    | Ok cfg -> cfg
    | Error e -> die "pfs: bad configuration (%s)" (Errno.to_string e)
  in
  let t =
    match Pfs.create cfg with
    | Ok t -> t
    | Error e -> die "pfs: cannot start (%s)" (Errno.to_string e)
  in
  Printf.printf "pfs: serving %s (%d MB)\n%!" image cfg.Pfs.Config.size_mb;
  (match commands with
  | [] ->
    (try
       let quit = ref false in
       while not !quit do
         print_string "pfs> ";
         flush stdout;
         let line = input_line stdin in
         if String.trim line = "quit" then quit := true else run_line t line
       done
     with End_of_file -> ())
  | cmds -> List.iter (fun c -> run_line t c) cmds);
  Pfs.shutdown t;
  Printf.printf "pfs: image synced\n";
  0

(* {1 Sockets} *)

let unlink_quiet p = try Unix.unlink p with Unix.Unix_error _ -> ()

let listen_socket addr =
  let dom = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_UNIX p -> unlink_quiet p
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let addr_of ~image ~port =
  match port with
  | Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
  | None -> Unix.ADDR_UNIX (image ^ ".sock")

(* {1 Serve} *)

(* Bind [addr], serve [cfg] until a wire Shutdown, then write the
   merged statistics to [stats_path]. [pfs serve] and loadgen's server
   child both run this. *)
let serve_until_shutdown cfg addr ~stats_path =
  let lfd = listen_socket addr in
  let server =
    match Server.create cfg with
    | Ok s -> s
    | Error e -> die "pfs serve: cannot start (%s)" (Errno.to_string e)
  in
  Printf.printf "pfs: serving %s over %d shard(s)\n%!" cfg.Pfs.Config.image
    cfg.Pfs.Config.shards;
  Server.serve server lfd;
  Unix.close lfd;
  (match addr with Unix.ADDR_UNIX p -> unlink_quiet p | _ -> ());
  Out_channel.with_open_text stats_path (fun oc ->
      output_string oc (Json.to_string (Server.report_json server)));
  Printf.printf "pfs: server stopped, stats in %s\n%!" stats_path

(* The socket server's configuration: it runs on the real clock. *)
let real_config ~who image sets =
  match config_of image sets with
  | Error e -> die "%s: bad configuration (%s)" who (Errno.to_string e)
  | Ok cfg when cfg.Pfs.Config.clock <> `Real -> die "%s: needs clock=real" who
  | Ok cfg -> cfg

let serve_main image sets port stats_out =
  let cfg = real_config ~who:"pfs serve" image sets in
  serve_until_shutdown cfg (addr_of ~image ~port)
    ~stats_path:(Option.value stats_out ~default:(image ^ ".stats.json"));
  0

(* {1 Load generator}

   The workloads are {!Capfs_pfs.Loadgen}'s; this is the process
   layout around them. Everything forks off this (single-threaded,
   domain-free) parent {e before} any OCaml domain exists anywhere —
   the server child spawns its shard domains after the fork. Clients
   are real processes, so client-side CPU never shares a runtime with
   the server; each sends its [Loadgen.result] home over a pipe. *)

(* A blocking stream socket to the server, retried every 50 ms while it
   comes up; after [tries] refusals loadgen gives up. *)
let connect_to ?(tries = 100) addr =
  let rec go tries =
    let fd =
      Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      if tries <= 1 then
        die "pfs loadgen: cannot reach the server (%s)" (Unix.error_message e);
      Unix.sleepf 0.05;
      go (tries - 1)
  in
  go tries

let fork_child f =
  match Unix.fork () with
  | 0 ->
    f ();
    exit 0
  | pid -> pid

(* One full benchmark run at a given shard count: fork the server,
   fork the clients, gather, shut the server down over the wire. *)
let loadgen_run ~image ~sets ~shards ~clients ~depth ~files ~bytes ~seconds
    ~workload ~cache =
  let image = Printf.sprintf "%s.s%d" image shards in
  let cfg =
    real_config ~who:"pfs loadgen" image
      (Printf.sprintf "shards=%d" shards :: sets)
  in
  let addr = Unix.ADDR_UNIX (image ^ ".sock") in
  let server_pid =
    fork_child (fun () ->
        serve_until_shutdown cfg addr ~stats_path:(image ^ ".stats.json"))
  in
  let transport () = CC.socket_transport (connect_to addr) in
  (* wait for the socket to accept *)
  Unix.close (connect_to ~tries:200 addr);
  if workload <> Loadgen.Seq then
    Loadgen.setup_shared (transport ()) ~files ~bytes;
  let kids =
    List.init clients (fun id ->
        let r, w = Unix.pipe () in
        let pid =
          fork_child (fun () ->
              Unix.close r;
              let result =
                try
                  Loadgen.run (transport ()) ~id workload ~cache ~depth ~files
                    ~bytes ~seconds
                with Failure msg -> die "pfs loadgen: client %d: %s" id msg
              in
              let oc = Unix.out_channel_of_descr w in
              Marshal.to_channel oc (result : Loadgen.result) [];
              close_out oc)
        in
        Unix.close w;
        (pid, r))
  in
  let results =
    List.map
      (fun (pid, r) ->
        let ic = Unix.in_channel_of_descr r in
        let result =
          try Some (Marshal.from_channel ic : Loadgen.result)
          with End_of_file | Failure _ -> None
        in
        close_in ic;
        match (Unix.waitpid [] pid, result) with
        | (_, Unix.WEXITED 0), Some result -> result
        | _ -> die "pfs loadgen: a client failed")
      kids
  in
  let consistency =
    if cache then
      Some (Loadgen.consistency_probe (transport ()) (transport ()) ~bytes)
    else None
  in
  Loadgen.shutdown (transport ());
  let _, status = Unix.waitpid [] server_pid in
  if status <> Unix.WEXITED 0 then die "pfs loadgen: unclean server exit";
  let json, line =
    Loadgen.summary ~shards ~clients ~depth workload ~cache ~consistency
      results
  in
  print_endline line;
  json

let loadgen_main image sets shard_list clients depth files bytes seconds
    workload cache out =
  let workload =
    match Loadgen.parse_workload workload with
    | Ok w -> w
    | Error e -> die "pfs loadgen: %s" e
  in
  if cache && workload = Loadgen.Seq then
    die "pfs loadgen: --cache needs a shared workload (zipf:* or \
         readmostly:*)";
  let shard_list =
    match
      String.split_on_char ',' shard_list
      |> List.filter (fun s -> String.trim s <> "")
      |> List.map (fun s -> int_of_string_opt (String.trim s))
    with
    | [] -> die "pfs loadgen: --shards needs at least one count"
    | l when List.mem None l -> die "pfs loadgen: bad --shards list"
    | l -> List.map Option.get l
  in
  let runs =
    try
      List.map
        (fun shards ->
          loadgen_run ~image ~sets ~shards ~clients ~depth ~files ~bytes
            ~seconds ~workload ~cache)
        shard_list
    with Failure msg -> die "pfs loadgen: %s" msg
  in
  (match Json.update_file out (Loadgen.splice runs) with
  | Ok () -> Printf.printf "pfs loadgen: results spliced into %s\n" out
  | Error e -> die "pfs loadgen: cannot splice the results (%s)" e);
  let clean run = Json.member "errors" run = Some (Json.Num 0.) in
  if List.for_all clean runs then 0 else 1

(* {1 Command line} *)

open Cmdliner

let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")

let sets =
  Arg.(
    value & opt_all string []
    & info [ "s"; "set" ] ~docv:"KEY=VALUE" ~doc:Pfs.Config.arg_doc)

let shell_cmd =
  let size_mb = Arg.(value & opt int 64 & info [ "size-mb" ]) in
  let commands =
    Arg.(
      value & opt_all string []
      & info [ "c"; "command" ]
          ~doc:"Run a command and exit (repeatable).")
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"serve an image in-process, drive it by hand")
    Term.(const shell_main $ image $ size_mb $ sets $ commands)

let serve_cmd =
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ] ~doc:"Listen on loopback TCP $(docv) instead of \
                              the Unix socket IMAGE.sock."
          ~docv:"PORT")
  in
  let stats_out =
    Arg.(
      value & opt (some string) None
      & info [ "stats-out" ]
          ~doc:"Where to write the merged statistics report (default \
                IMAGE.stats.json).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"the scale-out multi-client server (shards behind a socket)")
    Term.(const serve_main $ image $ sets $ port $ stats_out)

let loadgen_cmd =
  let shards =
    Arg.(
      value & opt string "1"
      & info [ "shards" ]
          ~doc:"Comma-separated shard counts; each is one full run (e.g. \
                $(b,1,4) to compare scale-out)."
          ~docv:"N[,N...]")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client processes.")
  in
  let depth =
    Arg.(
      value & opt int 4
      & info [ "depth" ] ~doc:"Pipelined requests per client.")
  in
  let files =
    Arg.(
      value & opt int 8 & info [ "files" ] ~doc:"Files per client directory.")
  in
  let bytes =
    Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"Bytes per write/read.")
  in
  let seconds =
    Arg.(
      value & opt float 3.0 & info [ "seconds" ] ~doc:"Measured duration.")
  in
  let workload =
    Arg.(
      value & opt string "seq"
      & info [ "workload" ]
          ~doc:"$(b,seq) (private files, pipelined), \
                $(b,zipf:<theta>) (shared hot-set reads, Zipf-skewed), or \
                $(b,readmostly:<ratio>) (shared files, $(i,ratio) of ops \
                are reads)."
          ~docv:"KIND")
  in
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:"Run clients through the leased client cache \
                (Open_grant/Invalidate/Writeback vocabulary) instead of \
                plain per-op RPC. Needs a shared workload.")
  in
  let out =
    Arg.(
      value & opt string "BENCH_results.json"
      & info [ "out" ] ~doc:"JSON report to splice results into.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"fork a server and N clients, report ops/s and tail latency")
    Term.(
      const loadgen_main $ image $ sets $ shards $ clients $ depth $ files
      $ bytes $ seconds $ workload $ cache $ out)

let cmd =
  let default =
    Term.(ret (const (fun _ -> `Help (`Pager, None)) $ const ()))
  in
  Cmd.group ~default
    (Cmd.info "pfs" ~doc:"the on-line cut-and-paste file system")
    [ shell_cmd; serve_cmd; loadgen_cmd ]

let () =
  (* warnings and errors reach stderr: why an image is refused, why a
     request crashed *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  exit (Cmd.eval' cmd)
