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
module Frame = Capfs_ccache.Netlink.Frame
module CC = Capfs_pfs.Cached_client

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

let listen_socket ?(backlog = 64) addr =
  let dom = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_UNIX p -> unlink_quiet p
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd backlog;
  fd

let addr_of ~image ~port =
  match port with
  | Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
  | None -> Unix.ADDR_UNIX (image ^ ".sock")

(* {1 Serve} *)

let serve_main image sets port stats_out =
  let cfg =
    match config_of image sets with
    | Ok cfg -> cfg
    | Error e -> die "pfs serve: bad configuration (%s)" (Errno.to_string e)
  in
  if cfg.Pfs.Config.clock <> `Real then
    die "pfs serve: the socket server needs clock=real";
  let addr = addr_of ~image ~port in
  let lfd = listen_socket addr in
  let server =
    match Server.create cfg with
    | Ok s -> s
    | Error e -> die "pfs serve: cannot start (%s)" (Errno.to_string e)
  in
  Printf.printf "pfs: serving %s over %d shard(s)\n%!" image
    cfg.Pfs.Config.shards;
  Server.serve server lfd;
  Unix.close lfd;
  (match addr with Unix.ADDR_UNIX p -> unlink_quiet p | _ -> ());
  let stats_path =
    match stats_out with Some p -> p | None -> image ^ ".stats.json"
  in
  let oc = open_out stats_path in
  output_string oc (Server.report_json server);
  output_char oc '\n';
  close_out oc;
  Printf.printf "pfs: server stopped, stats in %s\n" stats_path;
  0

(* {1 Load generator}

   Process layout: everything forks off this (single-threaded,
   domain-free) parent {e before} any OCaml domain exists anywhere —
   the server child spawns its shard domains after the fork. Clients
   are real processes, so client-side CPU never shares a runtime with
   the server. *)

(* Log-bucketed latency histogram: bucket i covers latencies up to
   [1.2^i] microseconds; 160 buckets reach ~5 minutes. Merging across
   clients is element-wise addition; quantiles read the cumulative
   distribution and report the bucket's upper edge. *)
module Hist = struct
  let buckets = 160
  let base = 1.2

  let create () = Array.make buckets 0

  let add h lat_s =
    let us = lat_s *. 1e6 in
    let i =
      if us <= 1. then 0
      else min (buckets - 1) (1 + int_of_float (log us /. log base))
    in
    h.(i) <- h.(i) + 1

  let merge into h = Array.iteri (fun i v -> into.(i) <- into.(i) + v) h

  let quantile_us h q =
    let total = Array.fold_left ( + ) 0 h in
    if total = 0 then 0.
    else begin
      let want = int_of_float (ceil (q *. float_of_int total)) in
      let seen = ref 0 and result = ref 0. in
      (try
         Array.iteri
           (fun i v ->
             seen := !seen + v;
             if !seen >= want then begin
               result := base ** float_of_int i;
               raise Exit
             end)
           h
       with Exit -> ());
      !result
    end
end

(* {2 Workload families}

   [seq] is the original pipelined open/write/close/open/read/close
   cycle over private per-client directories. The shared families model
   a hot set: every client holds the same [files] files under /shared
   open and reads them — Zipf-skewed ([zipf:<theta>], pure reads) or
   uniform with a write mix ([readmostly:<ratio>], [1-ratio] of the ops
   cycle a handle RO->WO->write->RO so the grant machinery sees real
   sharing). The shared families are where client-side caching shows:
   with [--cache] the same loop runs over {!Cached_client}. *)

type workload = Seq | Zipf of float | Readmostly of float

let parse_workload s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "seq" ] -> Seq
  | [ "zipf"; t ] -> (
    match float_of_string_opt t with
    | Some t when t >= 0. -> Zipf t
    | _ -> die "pfs loadgen: bad zipf theta %S" t)
  | [ "readmostly"; r ] -> (
    match float_of_string_opt r with
    | Some r when r >= 0. && r <= 1. -> Readmostly r
    | _ -> die "pfs loadgen: bad readmostly ratio %S" r)
  | _ ->
    die "pfs loadgen: unknown workload %S (seq | zipf:<theta> | \
         readmostly:<ratio>)" s

let workload_name = function
  | Seq -> "seq"
  | Zipf t -> Printf.sprintf "zipf:%g" t
  | Readmostly r -> Printf.sprintf "readmostly:%g" r

(* Zipf(theta) over ranks 1..n, as an inverse-CDF table. *)
let zipf_cdf ~n ~theta =
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.theta) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_cdf cdf rng =
  let r = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

let shared_dir = "/shared"
let shared_file k = Printf.sprintf "%s/f%d" shared_dir k

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

(* One plain-vocabulary connection. Every request is one blocking
   [Frame.write] and every reply one blocking [Frame.read]; [who] names
   the caller in failure messages. *)
type conn = { fd : Unix.file_descr; who : string; mutable last_id : int }

let conn ~who fd = { fd; who; last_id = 0 }

let send c req =
  let opcode, body = Wire.encode_request req in
  c.last_id <- c.last_id + 1;
  let req_id = c.last_id in
  (match Frame.write c.fd { Frame.req_id; opcode; payload = body } with
  | Ok () -> ()
  | Error e -> die "%s: send failed (%s)" c.who (Errno.to_string e));
  req_id

let recv c =
  match Frame.read c.fd with
  | Ok (Some { Frame.req_id; opcode; payload }) -> (
    match Wire.decode_reply ~opcode payload with
    | Ok r -> (req_id, r)
    | Error e -> die "%s: bad reply (%s)" c.who (Errno.to_string e))
  | Ok None -> die "%s: server closed the connection" c.who
  | Error e -> die "%s: recv failed (%s)" c.who (Errno.to_string e)

(* One synchronous call: send, then wait for the reply with its id. *)
let call c req =
  let rid = send c req in
  let rec wait () =
    let rid', r = recv c in
    if rid' = rid then r else wait ()
  in
  wait ()

(* Build the shared hot set before any client starts. *)
let setup_shared addr ~files ~bytes =
  let c = conn ~who:"pfs loadgen" (connect_to addr) in
  let call = call c in
  (match call (Wire.Mkdir shared_dir) with
  | Wire.Ok_unit | Wire.Err Errno.EEXIST -> ()
  | r -> die "pfs loadgen: mkdir %s: %s" shared_dir
           (Format.asprintf "%a" Wire.pp_reply r));
  let payload = String.make bytes 'i' in
  for k = 0 to files - 1 do
    let path = shared_file k in
    let expect what = function
      | Wire.Ok_unit -> ()
      | r -> die "pfs loadgen: %s %s: %s" what path
               (Format.asprintf "%a" Wire.pp_reply r)
    in
    expect "open"
      (call (Wire.Open { client = 999999; path; mode = Client.WO }));
    expect "write"
      (call (Wire.Write { client = 999999; path; offset = 0; data = payload }));
    expect "close" (call (Wire.Close { client = 999999; path }))
  done;
  Unix.close c.fd

type client_result = {
  ops : int;
  eagain : int;
  errors : int;
  secs : float;
  hits : int;
  misses : int;
  hist : int array;
}

let report_client ~ops ~eagain ~errors ~secs ~hits ~misses ~hist out_fd =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%d %d %d %.6f %d %d" ops eagain errors secs hits misses);
  Array.iter (fun v -> Buffer.add_string b (" " ^ string_of_int v)) hist;
  Buffer.add_char b '\n';
  let line = Buffer.contents b in
  let _ = Unix.write_substring out_fd line 0 (String.length line) in
  Unix.close out_fd

(* One pipelined client: [depth] requests in flight on one blocking
   socket, replies correlated by request id (they return out of
   order). Each slot cycles open→write→close→open→read→close over the
   client's private files — private directory, so the first path
   component routes all of one client's traffic to one shard. *)
let run_client ~addr ~id ~depth ~files ~bytes ~seconds out_fd =
  let c = conn ~who:(Printf.sprintf "client %d" id) (connect_to addr) in
  let dir = Printf.sprintf "/c%d" id in
  let payload = String.make bytes 'x' in
  (* setup (untimed): the client's private directory *)
  let rec mkdir tries =
    match call c (Wire.Mkdir dir) with
    | Wire.Ok_unit -> ()
    | Wire.Err Errno.EEXIST -> ()
    | Wire.Err Errno.EAGAIN when tries > 0 ->
      Unix.sleepf 0.01;
      mkdir (tries - 1)
    | r -> die "client %d: mkdir: %s" id (Format.asprintf "%a" Wire.pp_reply r)
  in
  mkdir 200;
  (* phase sequence per slot; [k] is the slot's file cursor *)
  let phase_req slot phase =
    let path = Printf.sprintf "%s/f%d" dir slot.(0) in
    match phase with
    | 0 -> Wire.Open { client = id; path; mode = Client.WO }
    | 1 -> Wire.Write { client = id; path; offset = 0; data = payload }
    | 2 -> Wire.Close { client = id; path }
    | 3 -> Wire.Open { client = id; path; mode = Client.RO }
    | 4 -> Wire.Read { client = id; path; offset = 0; count = bytes }
    | _ -> Wire.Close { client = id; path }
  in
  let hist = Hist.create () in
  let ops = ref 0 and eagain = ref 0 and errors = ref 0 in
  let in_flight = Hashtbl.create 16 in (* req_id -> (slot, phase, t_sent) *)
  let issue slot phase =
    let rid = send c (phase_req slot phase) in
    Hashtbl.replace in_flight rid (slot, phase, Unix.gettimeofday ())
  in
  let slots =
    Array.init depth (fun i -> [| i mod files |]) (* file cursor per slot *)
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  Array.iteri (fun i slot -> ignore i; issue slot 0) slots;
  let live = ref depth in
  while !live > 0 do
    let rid, reply = recv c in
    match Hashtbl.find_opt in_flight rid with
    | None -> die "client %d: reply to unknown request %d" id rid
    | Some (slot, phase, t_sent) ->
      Hashtbl.remove in_flight rid;
      let now = Unix.gettimeofday () in
      let retry =
        match reply with
        | Wire.Err Errno.EAGAIN ->
          incr eagain;
          true
        | Wire.Err _ ->
          incr errors;
          false
        | _ ->
          Hist.add hist (now -. t_sent);
          incr ops;
          false
      in
      if now >= deadline then decr live
      else if retry then issue slot phase
      else begin
        let phase' = (phase + 1) mod 6 in
        if phase' = 0 then slot.(0) <- (slot.(0) + depth) mod files;
        issue slot phase'
      end
  done;
  (* drain what is still in flight so close pairs with open *)
  while Hashtbl.length in_flight > 0 do
    let rid, _ = recv c in
    Hashtbl.remove in_flight rid
  done;
  let secs = Unix.gettimeofday () -. t0 in
  Unix.close c.fd;
  report_client ~ops:!ops ~eagain:!eagain ~errors:!errors ~secs ~hits:0
    ~misses:0 ~hist out_fd

(* The shared-hot-set client (zipf / readmostly), synchronous: one op
   at a time over handles held open for the whole run. With [cache] the
   loop runs over {!Cached_client} — repeated reads of a granted file
   touch no wire; without, the same loop is one plain RPC per step, the
   old-client vocabulary. *)
let run_client_shared ~addr ~id ~files ~bytes ~seconds ~workload ~cache out_fd
    =
  let fd = connect_to addr in
  let rng = Random.State.make [| 0xC0FFEE; id |] in
  let pick, write_frac =
    match workload with
    | Zipf theta ->
      let cdf = zipf_cdf ~n:files ~theta in
      ((fun () -> sample_cdf cdf rng), 0.0)
    | Readmostly ratio -> ((fun () -> Random.State.int rng files), 1.0 -. ratio)
    | Seq -> die "pfs loadgen: seq is not a shared workload"
  in
  let payload = String.make bytes 'y' in
  let hist = Hist.create () in
  let ops = ref 0 and eagain = ref 0 and errors = ref 0 in
  let note r t1 =
    match r with
    | Ok () ->
      Hist.add hist (Unix.gettimeofday () -. t1);
      incr ops
    | Error Errno.EAGAIN -> incr eagain
    | Error _ -> incr errors
  in
  let ( let* ) = Result.bind in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let hits, misses =
    if cache then begin
      let cc = CC.create ~client:(id + 1) (CC.socket_transport fd) in
      for k = 0 to files - 1 do
        match CC.open_ cc (shared_file k) Client.RO with
        | Ok () -> ()
        | Error e ->
          die "client %d: open %s: %s" id (shared_file k) (Errno.to_string e)
      done;
      while Unix.gettimeofday () < deadline do
        let p = shared_file (pick ()) in
        let t1 = Unix.gettimeofday () in
        let r =
          if write_frac > 0. && Random.State.float rng 1.0 < write_frac then begin
            let r =
              let* () = CC.close_ cc p in
              let* () = CC.open_ cc p Client.WO in
              let* () = CC.write cc p ~offset:0 ~data:payload in
              let* () = CC.close_ cc p in
              CC.open_ cc p Client.RO
            in
            (* whatever failed mid-cycle, leave the handle readable *)
            (match r with Error _ -> ignore (CC.open_ cc p Client.RO) | Ok () -> ());
            r
          end
          else
            match CC.read cc p ~offset:0 ~count:bytes with
            | Ok _ -> Ok ()
            | Error e -> Error e
        in
        note r t1
      done;
      let h = CC.local_hits cc and m = CC.remote_misses cc in
      CC.disconnect cc;
      (h, m)
    end
    else begin
      let c = conn ~who:(Printf.sprintf "client %d" id) fd in
      let rpc req =
        match call c req with Wire.Err e -> Error e | _ -> Ok ()
      in
      for k = 0 to files - 1 do
        match
          rpc (Wire.Open { client = id; path = shared_file k; mode = Client.RO })
        with
        | Ok () -> ()
        | Error e ->
          die "client %d: open %s: %s" id (shared_file k) (Errno.to_string e)
      done;
      while Unix.gettimeofday () < deadline do
        let p = shared_file (pick ()) in
        let t1 = Unix.gettimeofday () in
        let r =
          if write_frac > 0. && Random.State.float rng 1.0 < write_frac then begin
            let r =
              let* () = rpc (Wire.Close { client = id; path = p }) in
              let* () = rpc (Wire.Open { client = id; path = p; mode = Client.WO }) in
              let* () =
                rpc (Wire.Write { client = id; path = p; offset = 0; data = payload })
              in
              let* () = rpc (Wire.Close { client = id; path = p }) in
              rpc (Wire.Open { client = id; path = p; mode = Client.RO })
            in
            (match r with
            | Error _ ->
              ignore (rpc (Wire.Open { client = id; path = p; mode = Client.RO }))
            | Ok () -> ());
            r
          end
          else rpc (Wire.Read { client = id; path = p; offset = 0; count = bytes })
        in
        note r t1
      done;
      for k = 0 to files - 1 do
        ignore (rpc (Wire.Close { client = id; path = shared_file k }))
      done;
      Unix.close fd;
      (0, 0)
    end
  in
  let secs = Unix.gettimeofday () -. t0 in
  report_client ~ops:!ops ~eagain:!eagain ~errors:!errors ~secs ~hits ~misses
    ~hist out_fd

let parse_client_line line =
  match String.split_on_char ' ' (String.trim line) with
  | ops :: eagain :: errors :: secs :: hits :: misses :: hist ->
    {
      ops = int_of_string ops;
      eagain = int_of_string eagain;
      errors = int_of_string errors;
      secs = float_of_string secs;
      hits = int_of_string hits;
      misses = int_of_string misses;
      hist = Array.of_list (List.map int_of_string hist);
    }
  | _ -> die "loadgen: malformed client report: %s" line

let read_all fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Read-your-writes across two cached clients, through the push
   channel: A rewrites a file B holds cached; B's next read must see
   the new bytes and must have acted on at least one Invalidate. Runs
   against the live loadgen server, after the measured phase. *)
let consistency_probe addr ~bytes =
  let path = shared_dir ^ "/f0" in
  let pat c = String.make bytes c in
  let a = CC.create ~client:100001 (CC.socket_transport (connect_to addr)) in
  let b = CC.create ~client:100002 (CC.socket_transport (connect_to addr)) in
  let step name r =
    match r with
    | Ok v -> Ok v
    | Error e ->
      Printf.eprintf "pfs loadgen: consistency probe: %s failed (%s)\n%!"
        name (Errno.to_string e);
      Error e
  in
  let check name cond = step name (if cond then Ok () else Error Errno.EIO) in
  let ( let* ) = Result.bind in
  let run () =
    let* () = step "A open WO" (CC.open_ a path Client.WO) in
    let* () = step "A write P" (CC.write a path ~offset:0 ~data:(pat 'P')) in
    let* () = step "A close" (CC.close_ a path) in
    let* () = step "B open RO" (CC.open_ b path Client.RO) in
    let* d1 = step "B read 1" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = check "B sees P" (d1 = pat 'P') in
    (* warm B's cache, then rewrite behind its back *)
    let* _ = step "B read 2" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = step "A reopen WO" (CC.open_ a path Client.WO) in
    let* () = step "A write Q" (CC.write a path ~offset:0 ~data:(pat 'Q')) in
    let* () = step "A reclose" (CC.close_ a path) in
    (* the Invalidate rides B's connection; give its writer a beat *)
    Unix.sleepf 0.1;
    let* d2 = step "B read 3" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = check "B sees Q" (d2 = pat 'Q') in
    let* () = check "B was invalidated" (CC.invalidations b >= 1) in
    step "B close" (CC.close_ b path)
  in
  let ok = match run () with Ok () -> true | Error _ -> false in
  CC.disconnect a;
  CC.disconnect b;
  ok

(* One full benchmark run at a given shard count: fork the server,
   fork the clients, gather, shut the server down over the wire. *)
let loadgen_run ~image ~sets ~shards ~clients ~depth ~files ~bytes ~seconds
    ~workload ~cache =
  let image = Printf.sprintf "%s.s%d" image shards in
  let cfg =
    match config_of image (Printf.sprintf "shards=%d" shards :: sets) with
    | Ok cfg -> cfg
    | Error e -> die "pfs loadgen: bad configuration (%s)" (Errno.to_string e)
  in
  if cfg.Pfs.Config.clock <> `Real then
    die "pfs loadgen: needs clock=real";
  let sock_path = image ^ ".sock" in
  let addr = Unix.ADDR_UNIX sock_path in
  unlink_quiet sock_path;
  (* server child: bind, shard out, serve until a Shutdown frame *)
  let server_pid =
    match Unix.fork () with
    | 0 ->
      let lfd = listen_socket addr in
      (match Server.create cfg with
      | Error e ->
        prerr_endline ("pfs loadgen server: " ^ Errno.to_string e);
        exit 1
      | Ok server ->
        Server.serve server lfd;
        Unix.close lfd;
        let oc = open_out (image ^ ".stats.json") in
        output_string oc (Server.report_json server);
        output_char oc '\n';
        close_out oc;
        exit 0)
    | pid -> pid
  in
  (* wait for the socket to accept *)
  Unix.close (connect_to ~tries:200 addr);
  if workload <> Seq then setup_shared addr ~files ~bytes;
  (* client children, one pipe each *)
  let kids =
    List.init clients (fun id ->
        let r, w = Unix.pipe ~cloexec:false () in
        match Unix.fork () with
        | 0 ->
          Unix.close r;
          (match workload with
          | Seq -> run_client ~addr ~id ~depth ~files ~bytes ~seconds w
          | Zipf _ | Readmostly _ ->
            run_client_shared ~addr ~id ~files ~bytes ~seconds ~workload
              ~cache w);
          exit 0
        | pid ->
          Unix.close w;
          (pid, r))
  in
  let results =
    List.map
      (fun (pid, r) ->
        let text = read_all r in
        Unix.close r;
        let _, status = Unix.waitpid [] pid in
        if status <> Unix.WEXITED 0 then
          die "pfs loadgen: a client failed";
        parse_client_line text)
      kids
  in
  let consistency =
    if cache then Some (consistency_probe addr ~bytes) else None
  in
  (* stop the server over the wire: Shutdown gets no reply *)
  let c = conn ~who:"pfs loadgen: shutdown" (connect_to addr) in
  ignore (send c Wire.Shutdown);
  Unix.close c.fd;
  let _, status = Unix.waitpid [] server_pid in
  if status <> Unix.WEXITED 0 then die "pfs loadgen: unclean server exit";
  unlink_quiet sock_path;
  let hist = Hist.create () in
  List.iter (fun r -> Hist.merge hist r.hist) results;
  let ops = List.fold_left (fun a r -> a + r.ops) 0 results in
  let eagain = List.fold_left (fun a r -> a + r.eagain) 0 results in
  let errors =
    List.fold_left (fun a r -> a + r.errors) 0 results
    + (match consistency with Some false -> 1 | _ -> 0)
  in
  let hits = List.fold_left (fun a r -> a + r.hits) 0 results in
  let misses = List.fold_left (fun a r -> a + r.misses) 0 results in
  let secs = List.fold_left (fun a r -> Float.max a r.secs) 0.001 results in
  let ops_per_sec = float_of_int ops /. secs in
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"shards\": %d, \"clients\": %d, \"depth\": %d, \"workload\": \"%s\", \
     \"cache\": %b, \"seconds\": %.3f, \
     \"ops\": %d, \"eagain\": %d, \"errors\": %d, \"ops_per_sec\": %.1f, \
     \"client_hits\": %d, \"client_misses\": %d, \"hit_rate\": %.3f, \
     \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f"
    shards clients depth (workload_name workload) cache secs ops eagain
    errors ops_per_sec hits misses hit_rate
    (Hist.quantile_us hist 0.50)
    (Hist.quantile_us hist 0.99)
    (Hist.quantile_us hist 0.999);
  (match consistency with
  | Some c -> Printf.bprintf b ", \"consistency\": %b" c
  | None -> ());
  Buffer.add_char b '}';
  Printf.printf
    "pfs loadgen: %d shard(s), %d clients, %s%s: %d ops in %.2fs — %.0f \
     ops/s, p50 %.0fµs p99 %.0fµs p999 %.0fµs (%d eagain, %d errors%s)\n%!"
    shards clients (workload_name workload)
    (if cache then " +cache" else "")
    ops secs ops_per_sec
    (Hist.quantile_us hist 0.50)
    (Hist.quantile_us hist 0.99)
    (Hist.quantile_us hist 0.999)
    eagain errors
    (match consistency with
    | Some true -> ", consistency ok"
    | Some false -> ", CONSISTENCY FAILED"
    | None -> "");
  (Buffer.contents b, ops_per_sec, errors)

(* Splice a "loadgen" member into BENCH_results.json, preserving
   whatever else is there (the bench baseline gate reads its own keys
   from the same file). *)
let splice_bench path loadgen_json =
  let existing =
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s)
    else "{}"
  in
  let marker = ",\n  \"loadgen\":" in
  let base =
    match
      (* replace an existing loadgen member *)
      let rec find i =
        if i + String.length marker > String.length existing then None
        else if String.sub existing i (String.length marker) = marker then
          Some i
        else find (i + 1)
      in
      find 0
    with
    | Some i -> String.sub existing 0 i
    | None -> (
      match String.rindex_opt existing '}' with
      | Some i ->
        let rec trim i =
          if i > 0
             && (existing.[i - 1] = ' '
                || existing.[i - 1] = '\n'
                || existing.[i - 1] = '\t')
          then trim (i - 1)
          else i
        in
        String.sub existing 0 (trim i)
      | None -> "{")
  in
  let sep = if String.length base > 0 && base.[String.length base - 1] = '{'
    then "\n  " else ",\n  " in
  let oc = open_out_bin path in
  output_string oc (base ^ sep ^ "\"loadgen\": " ^ loadgen_json ^ "\n}\n");
  close_out oc

let loadgen_main image sets shard_list clients depth files bytes seconds
    workload cache out =
  let workload = parse_workload workload in
  if cache && workload = Seq then
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
    List.map
      (fun shards ->
        let json, ops_per_sec, errors =
          loadgen_run ~image ~sets ~shards ~clients ~depth ~files ~bytes
            ~seconds ~workload ~cache
        in
        (shards, json, ops_per_sec, errors))
      shard_list
  in
  let total_errors =
    List.fold_left (fun a (_, _, _, e) -> a + e) 0 runs
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"runs\": [";
  List.iteri
    (fun i (_, json, _, _) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b json)
    runs;
  Buffer.add_char b ']';
  (match runs with
  | (s1, _, r1, _) :: (_ :: _ as rest) when r1 > 0. ->
    let sn, _, rn, _ = List.nth rest (List.length rest - 1) in
    Printf.bprintf b ", \"speedup\": %.2f" (rn /. r1);
    Printf.printf "pfs loadgen: %d-shard vs %d-shard speedup: %.2fx\n%!" sn
      s1 (rn /. r1)
  | _ -> ());
  Buffer.add_char b '}';
  splice_bench out (Buffer.contents b);
  Printf.printf "pfs loadgen: results spliced into %s\n" out;
  if total_errors > 0 then 1 else 0

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

let () = exit (Cmd.eval' cmd)
