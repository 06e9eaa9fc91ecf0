(* serve-rw and serve-shared: a `pfs serve` process on its Unix socket,
   driven by this single-threaded, closed-loop generator over two load
   connections. A third, control connection does the set-up, fetches
   the Stats reply and sends Shutdown; it is idle while load runs. *)

module Wire = Capfs_pfs.Wire
module CC = Capfs_pfs.Cached_client
module Frame = Capfs_ccache.Netlink.Frame
module Errno = Capfs_core.Errno
module Client = Capfs.Client
module Data = Capfs_disk.Data

let now = Unix.gettimeofday

(* Server set-ups timed per run; setup_s is their median and the last
   one serves the measured load. *)
let setup_reps = 9

(* Load before the measured window: connections, caches and leases
   settle. *)
let warmup_s = 1.0

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Spans of the traced run}

   Totals of the time the generator spends inside each public call it
   makes; off in the untraced run. *)

type span = { mutable total : float }

let tracing = ref false
let send_span = { total = 0. }
let recv_span = { total = 0. }
let decode_span = { total = 0. }

let timed span f =
  if !tracing then begin
    let t0 = now () in
    let r = f () in
    span.total <- span.total +. (now () -. t0);
    r
  end
  else f ()

(* {1 The server process} *)

type server = {
  pid : int;
  sock : string;
  log : string;
  mutable reaped : bool;
}

let live : server option ref = ref None

let kill_and_reap s =
  if not s.reaped then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.reaped <- true
  end

(* Every exit path of the benchmark ends here (at_exit and the
   watchdog). *)
let cleanup () = Option.iter kill_and_reap !live

let server_log s = try Procfs.read_file s.log with Sys_error _ -> ""

let spawn ~pfs ~dir =
  let image = Filename.concat dir "img" in
  let log = Filename.concat dir "server.log" in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid = Unix.create_process pfs [| pfs; "serve"; image |] null out out in
  Unix.close out;
  Unix.close null;
  let s = { pid; sock = image ^ ".sock"; log; reaped = false } in
  live := Some s;
  s

let connect s =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* The first connection, retried until the server has formatted its
   image and listens. *)
let connect_when_ready s ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match connect s with
    | fd -> fd
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ -> ()
      | _ ->
        s.reaped <- true;
        failwith ("server exited during start-up:\n" ^ server_log s));
      if now () > deadline then failwith "server did not come up";
      (* short: the poll's granularity is part of setup_s *)
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* One blocking request/reply on the control connection. *)
let sync_call fd next_id req =
  let opcode, payload = Wire.encode_request req in
  incr next_id;
  let req_id = !next_id in
  (match Frame.write fd { Frame.req_id; opcode; payload } with
  | Ok () -> ()
  | Error e -> failwith ("control send failed: " ^ Errno.to_string e));
  let rec wait () =
    match Frame.read fd with
    | Ok (Some f) when f.Frame.req_id = req_id -> (
      match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
      | Ok r -> r
      | Error e -> failwith ("bad control reply: " ^ Errno.to_string e))
    | Ok (Some _) -> wait ()
    | Ok None -> failwith "server closed the control connection"
    | Error e -> failwith ("control recv failed: " ^ Errno.to_string e)
  in
  wait ()

let expect_unit what = function
  | Wire.Ok_unit -> ()
  | r -> failwith (Format.asprintf "%s: %a" what Wire.pp_reply r)

(* Send Shutdown (no reply), wait for the exit; anything but a clean
   exit 0 fails the run. *)
let shutdown s ctl =
  let opcode, payload = Wire.encode_request Wire.Shutdown in
  ignore (Frame.write ctl { Frame.req_id = 0; opcode; payload });
  Unix.close ctl;
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if now () > deadline then begin
        kill_and_reap s;
        Metrics.fail "server still running 30 s after Shutdown"
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _, Unix.WEXITED 0 -> s.reaped <- true
    | _, _ ->
      s.reaped <- true;
      Metrics.fail "unclean server exit:\n%s" (server_log s)
  in
  wait ()

let clear_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

(* [timed_setups ~dir f] runs [f ()] (spawn, populate, connect)
   [setup_reps] times, shutting down and wiping all but the last one;
   returns the median set-up time and the last set-up's value. *)
let timed_setups ~dir f =
  let rec go i times =
    let t0 = now () in
    let (s, ctl, _) as v = f () in
    let times = (now () -. t0) :: times in
    if i + 1 < setup_reps then begin
      shutdown s ctl;
      clear_dir dir;
      go (i + 1) times
    end
    else (Samples.median times, v)
  in
  go 0 []

(* {1 Stats replies} *)

type stats = {
  totals : (string * (float * float)) list;  (* key -> (count, total) *)
  wire : (string * float) list;
}

let fetch_stats ctl next_id =
  match sync_call ctl next_id Wire.Stats with
  | Wire.Ok_stats json ->
    let j = Json_lite.parse json in
    let num v = Option.value (Option.bind v Json_lite.to_float) ~default:0. in
    let totals =
      Option.fold ~none:[] ~some:Json_lite.to_list (Json_lite.member "totals" j)
      |> List.filter_map (fun e ->
             Option.map
               (fun k ->
                 (k, (num (Json_lite.member "count" e), num (Json_lite.member "total" e))))
               (Option.bind (Json_lite.member "key" e) Json_lite.to_string))
    in
    let wire =
      match Json_lite.member "wire" j with
      | Some (Json_lite.Obj kvs) ->
        List.map (fun (k, v) -> (k, num (Some v))) kvs
      | _ -> []
    in
    { totals; wire }
  | r -> failwith (Format.asprintf "Stats: %a" Wire.pp_reply r)

let stat_count s k = Option.fold ~none:0. ~some:fst (List.assoc_opt k s.totals)
let stat_total s k = Option.fold ~none:0. ~some:snd (List.assoc_opt k s.totals)
let wire s k = Option.value (List.assoc_opt k s.wire) ~default:0.

(* {1 The measured window} *)

type snap = {
  wall : float;
  proc : Procfs.cpu;
  tasks : (int * Procfs.cpu) list;
  gen : float;
}

let snap pid =
  let wall = now () in
  { wall; proc = Procfs.process_cpu pid; tasks = Procfs.task_cpus pid;
    gen = cpu_self () }

type window = {
  pid : int;
  t_measure : float;
  t_end : float;
  mutable start : snap option;
  mutable stop : snap option;
  mutable ops : int;  (* checked, successful ops in the window *)
  mutable attempted : int;
  mutable failed : int;
  lat : Samples.t;
  kinds : (string * Samples.t) list;
  mutable all_ops : int;  (* every completed op since the first Stats *)
  mutable replies : int;  (* every message the server sent the load *)
  mutable slices : (float * int * int) list;
      (* (wall, server CPU ticks, ops) at each slice boundary, newest first *)
  mutable next_slice : float;
}

(* The window is cut into slices of this length; ops_per_s and
   cpu_us_per_op are medians over slices, so a burst of load from
   elsewhere on the host moves one slice, not the run. *)
let slice_s = 3.0

let window ~pid ~kinds ~seconds =
  let t_measure = now () +. warmup_s in
  {
    pid;
    t_measure;
    t_end = t_measure +. seconds;
    start = None;
    stop = None;
    ops = 0;
    attempted = 0;
    failed = 0;
    lat = Samples.create ();
    kinds = List.map (fun k -> (k, Samples.create ())) kinds;
    all_ops = 0;
    replies = 0;
    slices = [];
    next_slice = t_measure +. slice_s;
  }

let mark w s = w.slices <- (s.wall, Procfs.total s.proc, w.ops) :: w.slices

(* Move the window along the clock: the CPU snapshots are taken at the
   first op completing after each boundary. *)
let advance w t =
  if w.start = None && t >= w.t_measure then begin
    let s = snap w.pid in
    w.start <- Some s;
    mark w s
  end;
  if w.stop = None && t >= w.t_end then begin
    let s = snap w.pid in
    w.stop <- Some s;
    mark w s
  end
  else if w.start <> None && t >= w.next_slice
          && w.next_slice +. (slice_s /. 2.) <= w.t_end then begin
    w.slices <- (now (), Procfs.total (Procfs.process_cpu w.pid), w.ops) :: w.slices;
    w.next_slice <- w.next_slice +. slice_s
  end

(* [(ops/s, CPU ticks per op)] of every slice, oldest first. *)
let slice_rates w =
  let rec go = function
    | (t1, c1, n1) :: ((t0, c0, n0) :: _ as rest) when n1 > n0 ->
      (float_of_int (n1 - n0) /. (t1 -. t0),
       float_of_int (c1 - c0) /. float_of_int (n1 - n0))
      :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  List.rev (go w.slices)

let measuring w = w.start <> None && w.stop = None
let stopped w = w.stop <> None

let record w ~kind ~ok latency =
  w.all_ops <- w.all_ops + 1;
  if measuring w then begin
    w.attempted <- w.attempted + 1;
    if ok then begin
      w.ops <- w.ops + 1;
      Samples.add w.lat latency;
      Samples.add (List.assoc kind w.kinds) latency
    end
    else w.failed <- w.failed + 1
  end

let p50_us s = if Samples.count s = 0 then 0. else 1e6 *. Samples.quantile s 0.5

(* The end-to-end figures and the server-side breakdown, shared by
   both serve workloads. *)
let server_metrics m ~clk_tck w ~setup_s ~stats0 ~stats1 ~peak_rss_mb =
  let s0 = Option.get w.start and s1 = Option.get w.stop in
  let ops = float_of_int (max 1 w.ops) in
  let us ticks = float_of_int ticks /. float_of_int clk_tck *. 1e6 /. ops in
  let frac a b = if b = 0. then 0. else a /. b in
  let cpu = Procfs.diff s1.proc s0.proc in
  let task_delta tid c =
    Procfs.diff c (Option.value (List.assoc_opt tid s0.tasks) ~default:Procfs.zero)
  in
  let listener =
    Option.fold ~none:Procfs.zero
      ~some:(task_delta w.pid)
      (List.assoc_opt w.pid s1.tasks)
  in
  let shard =
    List.fold_left
      (fun acc (tid, c) ->
        if tid = w.pid then acc
        else
          let d = task_delta tid c in
          { Procfs.utime = acc.Procfs.utime + d.Procfs.utime;
            stime = acc.Procfs.stime + d.Procfs.stime })
      Procfs.zero s1.tasks
  in
  let sys_frac c =
    frac (float_of_int c.Procfs.stime) (float_of_int (Procfs.total c))
  in
  let wall = s1.wall -. s0.wall in
  let residual = Procfs.total cpu - Procfs.total listener - Procfs.total shard in
  let share c = frac (float_of_int c) (float_of_int (Procfs.total cpu)) in
  let rates = slice_rates w in
  List.iter
    (fun (r, c) ->
      Printf.eprintf "slice: %.1f ops/s, %.3f us CPU per op\n" r
        (1e6 /. float_of_int clk_tck *. c))
    rates;
  Metrics.set m "ops_per_s" (Samples.median (List.map fst rates));
  Metrics.set m "cpu_us_per_op"
    (1e6 /. float_of_int clk_tck *. Samples.median (List.map snd rates));
  Metrics.set m "peak_rss_mb" peak_rss_mb;
  Metrics.set m "setup_s" setup_s;
  Metrics.set m "failed_frac"
    (frac (float_of_int w.failed) (float_of_int w.attempted));
  Metrics.set m "listener.cpu_frac" (share (Procfs.total listener));
  Metrics.set m "shard.cpu_frac" (share (Procfs.total shard));
  Metrics.set m "server.residual_frac" (share residual);
  if !tracing && Float.abs (share residual) > 0.1 then
    Metrics.fail "server CPU: listener + shard miss %.0f%% of the process"
      (100. *. share residual);
  Metrics.set m "listener.sys_frac" (sys_frac listener);
  Metrics.set m "shard.sys_frac" (sys_frac shard);
  Metrics.set m "gen.core_frac" ((s1.gen -. s0.gen) /. wall);
  if !tracing then begin
    Metrics.set m "gen.send_frac" (send_span.total /. wall);
    Metrics.set m "gen.recv_frac" (recv_span.total /. wall);
    Metrics.set m "gen.decode_frac" (decode_span.total /. wall)
  end;
  (* latencies and CPU per op in their own units *)
  let sorted = Samples.sorted w.lat in
  if Array.length sorted > 0 then
    Printf.printf "latency: p50 %.1f us, p99 %.1f us over %d samples\n"
      (1e6 *. Samples.percentile sorted 0.5)
      (1e6 *. Samples.percentile sorted 0.99)
      (Array.length sorted);
  Printf.printf "latency p50 by op:%s\n"
    (String.concat ","
       (List.map
          (fun (kind, s) ->
            Printf.sprintf " %s %.1f us (%d)" kind (p50_us s) (Samples.count s))
          w.kinds));
  Printf.printf
    "server CPU per op: listener %.2f us + shard %.2f us + residual %.2f us = %.2f us\n"
    (us (Procfs.total listener)) (us (Procfs.total shard)) (us residual)
    (us (Procfs.total cpu));
  Printf.printf "generator CPU per op: %.2f us\n" (1e6 *. (s1.gen -. s0.gen) /. ops);
  (* server counters: deltas between the Stats replies before the
     warm-up and after the window, per op completed in between *)
  let d f k = f stats1 k -. f stats0 k in
  let all = float_of_int (max 1 w.all_ops) in
  let hits = d stat_count "cache.hits" and misses = d stat_count "cache.misses" in
  let flushed = d stat_count "cache.flushed_blocks" in
  let absorbed = d stat_count "cache.absorbed_writes" in
  Metrics.set m "cache.hit_rate" (frac hits (hits +. misses));
  Metrics.set m "cache.evictions_per_op" (d stat_count "cache.evictions" /. all);
  Metrics.set m "cache.flushed_blocks_per_op" (flushed /. all);
  Metrics.set m "cache.absorbed_frac" (frac absorbed (absorbed +. flushed));
  Metrics.set m "lfs.segments_per_kop"
    (1000. *. d stat_count "lfs0.segment_sealed" /. all);
  Metrics.set m "driver.requests_per_op" (d stat_count "driver0.response" /. all);
  Metrics.set m "server.rejected_frac"
    (frac (d stat_total "server.rejected") (d stat_total "server.submitted"));
  Metrics.set m "wire.replies_per_write"
    (frac (float_of_int w.replies) (d wire "wire.syscalls"));
  Metrics.set m "wire.copied_bytes_per_op" (d wire "wire.copied_bytes" /. all);
  { Metrics.attempted = max 1 w.attempted; failed = w.failed }

(* {1 serve-rw} *)

let rw_conns = 2
let rw_depth = 4
let rw_files = 8
let rw_bytes = 4096
let rw_path conn file = Printf.sprintf "/c%d/f%d" conn file

type rw_slot = {
  conn : int;
  mutable file : int;
  mutable cycle : int;
  mutable phase : int;  (* 0 open WO, 1 write, 2 close, 3 open RO, 4 read, 5 close *)
  mutable data : string;  (* what this cycle wrote *)
}

type lconn = {
  fd : Unix.file_descr;
  sp : Frame.Splitter.t;
  inflight : (int, rw_slot * float) Hashtbl.t;
  mutable next_id : int;
}

let rw_kind = function
  | 0 | 3 -> "open"
  | 1 -> "write"
  | 4 -> "read"
  | _ -> "close"

let rw_request ~seed s =
  let client = s.conn and path = rw_path s.conn s.file in
  match s.phase with
  | 0 -> Wire.Open { client; path; mode = Client.WO }
  | 1 ->
    s.data <-
      Streams.rw_payload ~seed ~conn:s.conn ~file:s.file ~cycle:s.cycle
        ~bytes:rw_bytes;
    Wire.Write { client; path; offset = 0; data = s.data }
  | 3 -> Wire.Open { client; path; mode = Client.RO }
  | 4 -> Wire.Read { client; path; offset = 0; count = rw_bytes }
  | _ -> Wire.Close { client; path }

let rw_setup ~pfs ~dir ~seed () =
  let s = spawn ~pfs ~dir in
  let ctl = connect_when_ready s ~timeout:60. in
  let ids = ref 0 in
  let expected = Array.make_matrix rw_conns rw_files None in
  for c = 0 to rw_conns - 1 do
    expect_unit "mkdir" (sync_call ctl ids (Wire.Mkdir (Printf.sprintf "/c%d" c)));
    for f = 0 to rw_files - 1 do
      let path = rw_path c f in
      let data = Streams.rw_payload ~seed ~conn:c ~file:f ~cycle:0 ~bytes:rw_bytes in
      expect_unit "open" (sync_call ctl ids (Wire.Open { client = c; path; mode = Client.WO }));
      expect_unit "write" (sync_call ctl ids (Wire.Write { client = c; path; offset = 0; data }));
      expect_unit "close" (sync_call ctl ids (Wire.Close { client = c; path }));
      expected.(c).(f) <- Some data
    done
  done;
  let conns =
    Array.init rw_conns (fun _ ->
        { fd = connect s; sp = Frame.Splitter.create (); inflight = Hashtbl.create 16;
          next_id = 0 })
  in
  (s, ctl, (ids, expected, conns))

let rbuf = Bytes.create 65536

let rw_drive ~seed w ~expected conns =
  let send c req =
    let opcode, payload = Wire.encode_request req in
    c.next_id <- c.next_id + 1;
    let req_id = c.next_id in
    (match timed send_span (fun () -> Frame.write c.fd { Frame.req_id; opcode; payload }) with
    | Ok () -> ()
    | Error e -> failwith ("send failed: " ^ Errno.to_string e));
    req_id
  in
  let issue s =
    let c = conns.(s.conn) in
    let t = now () in
    let rid = send c (rw_request ~seed s) in
    Hashtbl.replace c.inflight rid (s, t)
  in
  let next_phase s =
    s.phase <- (s.phase + 1) mod 6;
    if s.phase = 0 then begin
      s.file <- (s.file + rw_depth) mod rw_files;
      s.cycle <- s.cycle + 1
    end
  in
  let checked s reply =
    match (s.phase, reply) with
    | (0 | 2 | 3 | 5), Wire.Ok_unit -> true
    | 1, Wire.Ok_unit ->
      expected.(s.conn).(s.file) <- Some s.data;
      true
    | 4, Wire.Ok_data d -> (
      match expected.(s.conn).(s.file) with
      | Some e when Data.to_string d = e -> true
      | Some _ ->
        Metrics.fail "serve-rw: %s read back other bytes than written"
          (rw_path s.conn s.file);
        false
      | None -> true)
    | _, r ->
      Metrics.fail "serve-rw: %s phase %d got %s" (rw_path s.conn s.file)
        s.phase (Format.asprintf "%a" Wire.pp_reply r);
      false
  in
  let handle c (f : Frame.t) =
    match Hashtbl.find_opt c.inflight f.Frame.req_id with
    | None -> Metrics.fail "serve-rw: reply to unknown request %d" f.Frame.req_id
    | Some (s, t_sent) ->
      Hashtbl.remove c.inflight f.Frame.req_id;
      w.replies <- w.replies + 1;
      let reply =
        timed decode_span (fun () ->
            Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload)
      in
      let retry =
        match reply with
        | Ok (Wire.Err Errno.EAGAIN) -> true
        | Ok (Wire.Err _) ->
          if s.phase = 1 then expected.(s.conn).(s.file) <- None;
          false
        | _ -> false
      in
      let ok = match reply with Ok r -> checked s r | Error _ -> false in
      let t = now () in
      advance w t;
      record w ~kind:(rw_kind s.phase) ~ok (t -. t_sent);
      if not retry then next_phase s;
      if not (stopped w) then issue s
  in
  Array.iter issue
    (Array.init (rw_conns * rw_depth) (fun i ->
         { conn = i / rw_depth; file = i mod rw_depth; cycle = 1; phase = 0; data = "" }));
  let last_progress = ref (now ()) in
  let busy () =
    Array.to_list conns |> List.filter (fun c -> Hashtbl.length c.inflight > 0)
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | cs ->
      let ready =
        match Unix.select (List.map (fun c -> c.fd) cs) [] [] 1.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if ready = [] && now () -. !last_progress > 10. then
        failwith "serve-rw: no reply for 10 s";
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) cs in
          match timed recv_span (fun () -> Unix.read c.fd rbuf 0 (Bytes.length rbuf)) with
          | 0 -> failwith "serve-rw: server closed a load connection"
          | n ->
            last_progress := now ();
            Frame.Splitter.feed c.sp rbuf 0 n;
            let rec pop () =
              match Frame.Splitter.pop c.sp with
              | Ok (Some f) ->
                handle c f;
                pop ()
              | Ok None -> ()
              | Error e -> failwith ("serve-rw: bad frame: " ^ Errno.to_string e)
            in
            pop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        ready;
      loop ()
  in
  loop ()

let run_rw ~pfs ~dir ~clk_tck ~seed ~seconds m =
  let setup_s, (s, ctl, (ids, expected, conns)) =
    timed_setups ~dir (rw_setup ~pfs ~dir ~seed)
  in
  let stats0 = fetch_stats ctl ids in
  let w = window ~pid:s.pid ~kinds:[ "open"; "write"; "close"; "read" ] ~seconds in
  rw_drive ~seed w ~expected conns;
  let stats1 = fetch_stats ctl ids in
  let peak_rss_mb = Procfs.peak_rss_mb (string_of_int s.pid) in
  Array.iter (fun c -> Unix.close c.fd) conns;
  shutdown s ctl;
  server_metrics m ~clk_tck w ~setup_s ~stats0 ~stats1 ~peak_rss_mb

(* {1 serve-shared} *)

let sh_clients = 2
let sh_files = 64
let sh_bytes = 16384
let sh_theta = 0.99
let sh_write_frac = 0.02
let sh_path f = Printf.sprintf "/shared/f%d" f

(* The socket transport, counting what arrives and timing both ways. *)
let counting_transport (tr : CC.transport) w =
  {
    tr with
    CC.t_send = (fun frames -> timed send_span (fun () -> tr.CC.t_send frames));
    t_recv =
      (fun ~block ->
        let r = timed recv_span (fun () -> tr.CC.t_recv ~block) in
        (match (r, !w) with
        | Ok (Some _), Some w -> w.replies <- w.replies + 1
        | _ -> ());
        r);
  }

let sh_setup ~pfs ~dir ~wref () =
  let s = spawn ~pfs ~dir in
  let ctl = connect_when_ready s ~timeout:60. in
  let ids = ref 0 in
  expect_unit "mkdir" (sync_call ctl ids (Wire.Mkdir "/shared"));
  let data = String.make sh_bytes (Streams.fill_byte 0) in
  for f = 0 to sh_files - 1 do
    let path = sh_path f in
    expect_unit "open" (sync_call ctl ids (Wire.Open { client = 99; path; mode = Client.WO }));
    expect_unit "write" (sync_call ctl ids (Wire.Write { client = 99; path; offset = 0; data }));
    expect_unit "close" (sync_call ctl ids (Wire.Close { client = 99; path }))
  done;
  let ccs =
    Array.init sh_clients (fun i ->
        CC.create ~client:(i + 1)
          (counting_transport (CC.socket_transport (connect s)) wref))
  in
  Array.iter
    (fun cc ->
      for f = 0 to sh_files - 1 do
        match CC.open_ cc (sh_path f) Client.RO with
        | Ok () -> ()
        | Error e -> failwith ("open " ^ sh_path f ^ ": " ^ Errno.to_string e)
      done)
    ccs;
  (s, ctl, (ids, ccs))

let ( let* ) = Result.bind

(* Close, reopen WO, write the whole file, close, reopen RO. *)
let rewrite cc path data =
  let r =
    let* () = CC.close_ cc path in
    let* () = CC.open_ cc path Client.WO in
    let* () = CC.write cc path ~offset:0 ~data in
    let* () = CC.close_ cc path in
    CC.open_ cc path Client.RO
  in
  (match r with Error _ -> ignore (CC.open_ cc path Client.RO) | Ok () -> ());
  r

(* Read-your-writes across the two clients through a pushed
   invalidation, with the steps of `pfs loadgen`'s probe. *)
let probe a b =
  let path = "/shared/probe" in
  let pat c = String.make sh_bytes c in
  let inv0 = CC.invalidations b in
  let step name r =
    Result.map_error
      (fun e -> Printf.sprintf "%s failed (%s)" name (Errno.to_string e))
      r
  in
  let check name cond = if cond then Ok () else Error name in
  let* () = step "A open WO" (CC.open_ a path Client.WO) in
  let* () = step "A write P" (CC.write a path ~offset:0 ~data:(pat 'P')) in
  let* () = step "A close" (CC.close_ a path) in
  let* () = step "B open RO" (CC.open_ b path Client.RO) in
  let* d1 = step "B read 1" (CC.read b path ~offset:0 ~count:sh_bytes) in
  let* () = check "B sees P" (d1 = pat 'P') in
  let* _ = step "B read 2" (CC.read b path ~offset:0 ~count:sh_bytes) in
  let* () = step "A reopen WO" (CC.open_ a path Client.WO) in
  let* () = step "A write Q" (CC.write a path ~offset:0 ~data:(pat 'Q')) in
  let* () = step "A reclose" (CC.close_ a path) in
  Unix.sleepf 0.1;
  let* d2 = step "B read 3" (CC.read b path ~offset:0 ~count:sh_bytes) in
  let* () = check "B sees Q" (d2 = pat 'Q') in
  let* () = check "B was invalidated" (CC.invalidations b > inv0) in
  step "B close" (CC.close_ b path)

(* A read is right when it is one whole version of the file: the full
   length, one fill byte throughout, and a byte some rewrite wrote. *)
let whole_version ~written data =
  String.length data = sh_bytes
  && (let c = data.[0] in
      Bytes.get written (Char.code c) = '\001'
      && String.for_all (fun x -> x = c) data)

type cc_counts = { hits : int; misses : int; invals : int; msgs : int; sends : int }

let cc_counts ccs =
  Array.fold_left
    (fun a cc ->
      {
        hits = a.hits + CC.local_hits cc;
        misses = a.misses + CC.remote_misses cc;
        invals = a.invals + CC.invalidations cc;
        msgs = a.msgs + CC.msgs_sent cc;
        sends = a.sends + CC.wire_sends cc;
      })
    { hits = 0; misses = 0; invals = 0; msgs = 0; sends = 0 }
    ccs

let run_shared ~pfs ~dir ~clk_tck ~seed ~seconds m =
  let wref = ref None in
  let setup_s, (s, ctl, (ids, ccs)) = timed_setups ~dir (sh_setup ~pfs ~dir ~wref) in
  let stats0 = fetch_stats ctl ids in
  let w = window ~pid:s.pid ~kinds:[ "read"; "rewrite" ] ~seconds in
  wref := Some w;
  let next =
    Streams.shared_ops ~seed ~clients:sh_clients ~files:sh_files ~theta:sh_theta
      ~write_frac:sh_write_frac
  in
  let versions = Array.make sh_files 0 in
  let written = Array.init sh_files (fun _ -> Bytes.make 256 '\000') in
  Array.iter (fun b -> Bytes.set b (Char.code (Streams.fill_byte 0)) '\001') written;
  let hit_lat = Samples.create () and miss_lat = Samples.create () in
  let c0 = ref None in
  while not (stopped w) do
    let op = next () in
    let cc = ccs.(op.Streams.client) and path = sh_path op.Streams.file in
    let t0 = now () in
    if op.Streams.write then begin
      let v = versions.(op.Streams.file) + 1 in
      versions.(op.Streams.file) <- v;
      let fill = Streams.fill_byte v in
      Bytes.set written.(op.Streams.file) (Char.code fill) '\001';
      let r = rewrite cc path (String.make sh_bytes fill) in
      let t = now () in
      advance w t;
      record w ~kind:"rewrite" ~ok:(Result.is_ok r) (t -. t0)
    end
    else begin
      let misses0 = CC.remote_misses cc in
      let r = CC.read cc path ~offset:0 ~count:sh_bytes in
      let t1 = now () in
      let ok =
        match r with
        | Ok data ->
          whole_version ~written:written.(op.Streams.file) data
          || (Metrics.fail "serve-shared: %s read is not one whole version" path;
              false)
        | Error _ -> false
      in
      let t = now () in
      advance w t;
      if measuring w && ok then
        Samples.add (if CC.remote_misses cc = misses0 then hit_lat else miss_lat)
          (t1 -. t0);
      record w ~kind:"read" ~ok (t -. t0)
    end;
    if measuring w && !c0 = None then c0 := Some (cc_counts ccs)
  done;
  let c1 = cc_counts ccs in
  let c0 = Option.value !c0 ~default:c1 in
  (match probe ccs.(0) ccs.(1) with
  | Ok () -> ()
  | Error e -> Metrics.fail "serve-shared: read-your-writes probe: %s" e);
  let stats1 = fetch_stats ctl ids in
  let peak_rss_mb = Procfs.peak_rss_mb (string_of_int s.pid) in
  Array.iter CC.disconnect ccs;
  shutdown s ctl;
  let ops = float_of_int (max 1 w.ops) in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Metrics.set m "cc.hit_rate" (frac (c1.hits - c0.hits) (c1.hits - c0.hits + c1.misses - c0.misses));
  Metrics.set m "cc.msgs_per_op" (float_of_int (c1.msgs - c0.msgs) /. ops);
  Metrics.set m "cc.msgs_per_send" (frac (c1.msgs - c0.msgs) (c1.sends - c0.sends));
  Metrics.set m "cc.invalidations_per_kop" (1000. *. float_of_int (c1.invals - c0.invals) /. ops);
  Printf.printf "cached reads: hit p50 %.1f us (%d), miss p50 %.1f us (%d)\n"
    (p50_us hit_lat) (Samples.count hit_lat) (p50_us miss_lat)
    (Samples.count miss_lat);
  server_metrics m ~clk_tck w ~setup_s ~stats0 ~stats1 ~peak_rss_mb
