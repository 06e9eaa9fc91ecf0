module Sched = Capfs_sched.Sched
module Errno = Capfs_core.Errno
module Pool = Capfs_patsy.Fleet.Pool
module Frame = Capfs_ccache.Netlink.Frame
module Counter = Capfs_stats.Counter
module Registry = Capfs_stats.Registry
module Snapshot = Capfs_stats.Snapshot
module Client = Capfs.Client
module Data = Capfs_disk.Data

let src = Logs.Src.create "capfs.server" ~doc:"sharded PFS server"

module Log = (val Logs.src_log src : Logs.LOG)

type job = { req : Wire.request; complete : Wire.reply -> unit }

(* Consistency and data-plane state common to every shard and the
   listener: the lease table (any shard may grant or invalidate), the
   push sinks (client id -> how to reach its connection), the shared
   reply arena (read payloads filled on shard domains, blitted and
   freed on the listener — hence [~shared]), and the wire counters. *)
type shared = {
  lease : Lease.t;
  pushers : (int, Wire.push -> unit) Hashtbl.t;
  pushers_lock : Mutex.t;
  reply_arena : Capfs_disk.Arena.t;
  w_blit : int Atomic.t; (* server-path payload blits *)
  w_copied : int Atomic.t; (* bytes those blits moved *)
  w_frames : int Atomic.t; (* frames put on the wire *)
  w_syscalls : int Atomic.t; (* write(2) calls that carried them *)
  w_batched : int Atomic.t; (* messages that rode a Batch container *)
}

type shard = {
  s_index : int;
  volume : Pfs.t;
  s_shared : shared;
  s_registry : Registry.t;
  inbox : job Queue.t;
  lock : Mutex.t;
  in_flight : int Atomic.t;
  stopping : bool Atomic.t;
  wake : (Unix.file_descr * Unix.file_descr) option;
      (* (read, write) self-pipe, real clock only: submitters poke the
         write end, the shard's pump fibre parks on the read end *)
  c_submitted : Counter.t;
  c_rejected : Counter.t;
  c_completed : Counter.t;
}

type t = {
  config : Pfs.Config.t;
  shards : shard array;
  shared : shared;
  pool : Pool.t option; (* one pinned domain per shard under [`Real] *)
  stopped : bool Atomic.t;
}

let register_pusher t ~client sink =
  Mutex.lock t.shared.pushers_lock;
  Hashtbl.replace t.shared.pushers client sink;
  Mutex.unlock t.shared.pushers_lock

let unregister_pusher t ~client =
  Mutex.lock t.shared.pushers_lock;
  Hashtbl.remove t.shared.pushers client;
  Mutex.unlock t.shared.pushers_lock

(* Fan an [Invalidate] out to the named clients' connections. Runs on a
   shard domain mid-[exec]; real-connection sinks only enqueue on the
   listener's completion queue, so no I/O happens under the lock. *)
let deliver_invalidations sd ~path ~version clients =
  if clients <> [] then begin
    Mutex.lock sd.pushers_lock;
    let sinks = List.filter_map (Hashtbl.find_opt sd.pushers) clients in
    Mutex.unlock sd.pushers_lock;
    List.iter
      (fun sink -> sink (Wire.Invalidate { path; version }))
      sinks
  end

(* {2 Routing} *)

let first_component path =
  let n = String.length path in
  let start = if n > 0 && path.[0] = '/' then 1 else 0 in
  let stop =
    match String.index_from_opt path start '/' with
    | Some i -> i
    | None -> n
  in
  String.sub path start (stop - start)

(* FNV-1a, 32 bit: tiny, stateless, and stable across runs and
   processes — the shard map must outlive any one server (handles keep
   meaning across restarts). *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let route t path = fnv1a (first_component path) mod Array.length t.shards

(* {2 Request execution — inside a fibre on the shard's scheduler} *)

(* A mutation through the old, grant-free vocabulary must still keep
   granted caches honest: bump the path's version and invalidate every
   holder (minus the mutator). No-op for never-granted paths. *)
let note_mutation sd ~client ~path =
  match Lease.note_write sd.lease ~client ~path with
  | None -> ()
  | Some (version, holders) ->
    deliver_invalidations sd ~path ~version holders

let exec sh req =
  let c = sh.volume.Pfs.client in
  let sd = sh.s_shared in
  match (req : Wire.request) with
  | Open { client; path; mode } -> (
    match Client.open_ c ~client path mode with
    | Ok () -> Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Close { client; path } -> (
    Lease.close_ sd.lease ~client ~path;
    match Client.close_ c ~client path with
    | Ok () -> Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Read { client; path; offset; count } -> (
    (* one copy, cache slab -> reply arena, block by block as each is
       fetched: the reply is a gather of owned cells that rides to the
       writer fibre's buffer with no intermediate heap copy *)
    match
      Client.read_into c ~client path sd.reply_arena ~offset ~bytes:count
    with
    | Ok d ->
      Atomic.incr sd.w_blit;
      ignore (Atomic.fetch_and_add sd.w_copied (Data.length d));
      Wire.Ok_data d
    | Error e -> Wire.Err e)
  | Write { client; path; offset; data } -> (
    match Client.write c ~client path ~offset (Data.of_string data) with
    | Ok () ->
      note_mutation sd ~client ~path;
      Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Open_grant { client; path; mode } -> (
    let write = mode <> Client.RO in
    let volume_open =
      match Lease.held sd.lease ~client ~path with
      | Some w when w = write -> Ok () (* pure renewal *)
      | Some _ -> (
        (* mode change without an intervening close: reopen *)
        match Client.close_ c ~client path with
        | Ok () -> Client.open_ c ~client path mode
        | Error _ as e -> e)
      | None -> Client.open_ c ~client path mode
    in
    match volume_open with
    | Error e -> Wire.Err e
    | Ok () -> (
      match Client.stat c path with
      | Error e -> Wire.Err e
      | Ok st ->
        let gi = Lease.open_grant sd.lease ~client ~path ~write in
        deliver_invalidations sd ~path ~version:gi.Lease.gi_version
          gi.Lease.gi_invalidate;
        Wire.Ok_grant
          {
            Wire.version = gi.Lease.gi_version;
            cacheable = gi.Lease.gi_cacheable;
            lease_s = Lease.lease_s sd.lease;
            size = st.Client.st_size;
          }))
  | Writeback { client; path; size; close; blocks } -> (
    let rec apply = function
      | [] -> Ok ()
      | (off, data) :: rest -> (
        match
          Client.write c ~client path ~offset:off (Data.of_string data)
        with
        | Ok () -> apply rest
        | Error _ as e -> e)
    in
    let applied =
      match apply blocks with
      | Error _ as e -> e
      | Ok () -> (
        (* the batch's final size is authoritative: shrink if the
           client truncated under delayed write *)
        match Client.stat c path with
        | Ok st when st.Client.st_size > size ->
          Client.truncate c path ~size
        | Ok _ -> Ok ()
        | Error _ as e -> e)
    in
    match applied with
    | Error e -> Wire.Err e
    | Ok () ->
      if close then begin
        Lease.close_ sd.lease ~client ~path;
        match Client.close_ c ~client path with
        | Ok () -> Wire.Ok_unit
        | Error e -> Wire.Err e
      end
      else Wire.Ok_unit)
  | Mkdir p -> (
    match Client.mkdir c p with
    | Ok () -> Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Delete p -> (
    match Client.delete c p with
    | Ok () ->
      note_mutation sd ~client:(-1) ~path:p;
      Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Stat p -> (
    match Client.stat c p with
    | Ok st ->
      Wire.Ok_stat
        {
          Wire.size = st.Client.st_size;
          is_dir = st.Client.st_kind = Capfs_layout.Inode.Directory;
        }
    | Error e -> Wire.Err e)
  | Sync -> (
    match Client.sync c with
    | Ok () -> Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Stats | Shutdown ->
    (* server-level operations never reach a shard *)
    Wire.Err Errno.EINVAL

let run_job sh job =
  let reply =
    try exec sh job.req with
    | Errno.Error e -> Wire.Err e
    | e ->
      Log.err (fun m ->
          m "shard %d: request crashed: %s" sh.s_index (Printexc.to_string e));
      Wire.Err Errno.EIO
  in
  Atomic.decr sh.in_flight;
  Counter.incr sh.c_completed;
  job.complete reply

(* {2 Admission and submission}

   [submit] runs on the caller's domain (listener or test); everything
   after the inbox hand-off runs on the shard's. The admission check is
   a CAS loop on [in_flight]: a full shard answers a typed [EAGAIN]
   {e before} any queueing happens, so overload costs the client one
   round-trip and the server almost nothing. *)

let poke sh =
  match sh.wake with
  | None -> ()
  | Some (_, w) -> (
    match Unix.write_substring w "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      () (* pipe full: the pump is already overdue to wake *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

let rec admit sh limit =
  let cur = Atomic.get sh.in_flight in
  if limit > 0 && cur >= limit then false
  else if Atomic.compare_and_set sh.in_flight cur (cur + 1) then true
  else admit sh limit

let submit_to_shard t sh job =
  if Atomic.get sh.stopping then begin
    Counter.incr sh.c_rejected;
    Error Errno.EAGAIN
  end
  else if not (admit sh t.config.Pfs.Config.admission) then begin
    Counter.incr sh.c_rejected;
    Error Errno.EAGAIN
  end
  else begin
    Mutex.lock sh.lock;
    Queue.push job sh.inbox;
    Mutex.unlock sh.lock;
    Counter.incr sh.c_submitted;
    poke sh;
    Ok ()
  end

let submit t req ~complete =
  match Wire.route_path req with
  | Some path -> submit_to_shard t t.shards.(route t path) { req; complete }
  | None -> (
    match (req : Wire.request) with
    | Sync ->
      (* fan out; reply once the slowest shard is stable, carrying the
         worst per-shard verdict *)
      let n = Array.length t.shards in
      let pending = Atomic.make n in
      let worst = Atomic.make None in
      let record_err e =
        (* first error wins; sync errors are rare enough that a racy
           "first" is fine — any error fails the sync *)
        if Atomic.get worst = None then Atomic.set worst (Some e)
      in
      let finish k =
        if Atomic.fetch_and_add pending (-k) = k then
          complete
            (match Atomic.get worst with
            | None -> Wire.Ok_unit
            | Some e -> Wire.Err e)
      in
      let rejected = ref 0 in
      Array.iter
        (fun sh ->
          let sub_complete r =
            (match r with Wire.Err e -> record_err e | _ -> ());
            finish 1
          in
          match
            submit_to_shard t sh { req = Wire.Sync; complete = sub_complete }
          with
          | Ok () -> ()
          | Error e ->
            record_err e;
            incr rejected)
        t.shards;
      if !rejected = n then Error Errno.EAGAIN
      else begin
        if !rejected > 0 then finish !rejected;
        Ok ()
      end
    | _ -> Error Errno.EINVAL)

(* {2 The shard service loop}

   Real clock: the shard lives on a pinned pool worker. A non-daemon
   pump fibre parks on the self-pipe; every wake drains the inbox and
   spawns one fibre per request. When [stopping] is observed the pump
   drains once more and exits — [Sched.run] then winds down the
   remaining request fibres and the worker shuts the volume. *)

let drain sh =
  Mutex.lock sh.lock;
  let jobs = List.rev (Queue.fold (fun acc j -> j :: acc) [] sh.inbox) in
  Queue.clear sh.inbox;
  Mutex.unlock sh.lock;
  jobs

let spawn_jobs sh jobs =
  let sched = sh.volume.Pfs.sched in
  List.iter
    (fun job ->
      ignore
        (Sched.spawn sched ~name:"shard.req" (fun () -> run_job sh job)))
    jobs;
  jobs <> []

let pump sh =
  let sched = sh.volume.Pfs.sched in
  let r = match sh.wake with Some (r, _) -> r | None -> assert false in
  let buf = Bytes.create 256 in
  let rec loop () =
    Sched.wait_readable sched r;
    (match Unix.read r buf 0 256 with
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ());
    ignore (spawn_jobs sh (drain sh));
    if Atomic.get sh.stopping then ignore (spawn_jobs sh (drain sh))
    else loop ()
  in
  loop ()

let shard_main sh () =
  let sched = sh.volume.Pfs.sched in
  ignore (Sched.spawn sched ~name:"shard.pump" (fun () -> pump sh));
  (try Sched.run sched with
  | e ->
    Log.err (fun m ->
        m "shard %d: scheduler died: %s" sh.s_index (Printexc.to_string e)));
  Pfs.shutdown sh.volume

(* Virtual clock: no domains, no pipes — the caller pumps explicitly.
   [drive] drains every inbox, runs every shard scheduler to
   quiescence, and repeats until nothing moved (a completion may submit
   follow-up work). Identical request path — only the wake-up mechanism
   differs. *)

let drive t =
  (match t.pool with
  | Some _ -> invalid_arg "Server.drive: real-clock server pumps itself"
  | None -> ());
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun sh ->
        if spawn_jobs sh (drain sh) then begin
          progress := true;
          Sched.run sh.volume.Pfs.sched
        end)
      t.shards
  done

(* {2 Construction} *)

let shard_image base i = Printf.sprintf "%s.shard%d" base i

let create ?injector (cfg : Pfs.Config.t) =
  match Pfs.Config.validate cfg with
  | Error _ as e -> e
  | Ok cfg -> (
    let n = cfg.Pfs.Config.shards in
    let real = cfg.Pfs.Config.clock = `Real in
    let shared =
      {
        lease = Lease.create ~lease_s:cfg.Pfs.Config.lease_s ();
        pushers = Hashtbl.create 64;
        pushers_lock = Mutex.create ();
        (* read replies, one cell per block: bounded by in-flight
           admission; a block that finds no free cell falls back to a
           heap buffer *)
        reply_arena =
          Capfs_disk.Arena.create ~shared:true ~cell_bytes:Pfs.block_bytes
            ~cells:
              (max 64
                 (min 1024
                    (if cfg.Pfs.Config.admission = 0 then 1024
                     else cfg.Pfs.Config.admission * n)))
            ();
        w_blit = Atomic.make 0;
        w_copied = Atomic.make 0;
        w_frames = Atomic.make 0;
        w_syscalls = Atomic.make 0;
        w_batched = Atomic.make 0;
      }
    in
    let built = ref [] in
    let destroy_built () =
      List.iter
        (fun sh ->
          Pfs.shutdown sh.volume;
          match sh.wake with
          | Some (r, w) ->
            Unix.close r;
            Unix.close w
          | None -> ())
        !built
    in
    match
      for i = 0 to n - 1 do
        let s_registry = Registry.create () in
        let counter name =
          Registry.register s_registry (Capfs_stats.Stat.scalar name);
          Registry.counter s_registry name
        in
        let c_submitted = counter "server.submitted" in
        let c_rejected = counter "server.rejected" in
        let c_completed = counter "server.completed" in
        let shard_cfg =
          {
            cfg with
            Pfs.Config.image = shard_image cfg.Pfs.Config.image i;
            shards = 1;
            (* decorrelate the per-shard PRNGs without losing determinism *)
            seed = cfg.Pfs.Config.seed + i;
          }
        in
        match Pfs.create ~registry:s_registry ?injector shard_cfg with
        | Error e -> raise (Errno.Error e)
        | Ok volume ->
          let wake =
            if real then begin
              let r, w = Unix.pipe ~cloexec:true () in
              Unix.set_nonblock r;
              Unix.set_nonblock w;
              Some (r, w)
            end
            else None
          in
          built :=
            {
              s_index = i;
              volume;
              s_shared = shared;
              s_registry;
              inbox = Queue.create ();
              lock = Mutex.create ();
              in_flight = Atomic.make 0;
              stopping = Atomic.make false;
              wake;
              c_submitted;
              c_rejected;
              c_completed;
            }
            :: !built
      done
    with
    | exception Errno.Error e ->
      destroy_built ();
      Error e
    | () ->
      let shards = Array.of_list (List.rev !built) in
      let pool =
        if real then begin
          let pool = Pool.create ~size:n in
          Array.iteri (fun i sh -> Pool.run_on pool i (shard_main sh)) shards;
          Some pool
        end
        else None
      in
      Ok { config = cfg; shards; shared; pool; stopped = Atomic.make false })

let shards t = Array.length t.shards

(* {2 Statistics} *)

let snapshots t =
  Array.map (fun sh -> Snapshot.capture sh.s_registry) t.shards

let merged t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun snap ->
      Array.iter
        (fun e ->
          match Hashtbl.find_opt tbl e.Snapshot.e_key with
          | None ->
            Hashtbl.add tbl e.Snapshot.e_key
              (ref (e.Snapshot.e_count, e.Snapshot.e_total));
            order := e.Snapshot.e_key :: !order
          | Some cell ->
            let c, tot = !cell in
            cell := (c + e.Snapshot.e_count, tot +. e.Snapshot.e_total))
        snap)
    (snapshots t);
  List.rev_map
    (fun key ->
      let c, tot = !(Hashtbl.find tbl key) in
      {
        Snapshot.e_key = key;
        e_count = c;
        e_total = tot;
        e_mean = (if c = 0 then 0. else tot /. float_of_int c);
      })
    !order
  |> Array.of_list

let report_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"shards\": ";
  Buffer.add_string b (string_of_int (Array.length t.shards));
  Buffer.add_string b ",\n  \"per_shard\": [";
  Array.iteri
    (fun i snap ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b "{\"index\": ";
      Buffer.add_string b (string_of_int i);
      Buffer.add_string b ", \"stats\": ";
      Snapshot.add_json b snap;
      Buffer.add_char b '}')
    (snapshots t);
  Buffer.add_string b "],\n  \"totals\": ";
  Snapshot.add_json b (merged t);
  Buffer.add_string b ",\n  \"wire\": {";
  let sd = t.shared in
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %d" (Capfs_stats.Names.wire name)
           (Atomic.get v)))
    [
      ("frames_sent", sd.w_frames);
      ("syscalls", sd.w_syscalls);
      ("batched", sd.w_batched);
      ("blit_count", sd.w_blit);
      ("copied_bytes", sd.w_copied);
    ];
  Buffer.add_string b "}\n}";
  Buffer.contents b

(* {2 Shutdown and the blocking call} *)

let rec shutdown t =
  if Atomic.compare_and_set t.stopped false true then shutdown_once t

and shutdown_once t =
  Array.iter (fun sh -> Atomic.set sh.stopping true) t.shards;
  match t.pool with
  | Some pool ->
    Array.iter poke t.shards;
    Pool.shutdown pool;
    Array.iter
      (fun sh ->
        match sh.wake with
        | Some (r, w) ->
          Unix.close r;
          Unix.close w
        | None -> ())
      t.shards
  | None ->
    (* drain whatever was still queued, then close each volume *)
    Array.iter
      (fun sh ->
        if spawn_jobs sh (drain sh) then Sched.run sh.volume.Pfs.sched)
      t.shards;
    Array.iter (fun sh -> Pfs.shutdown sh.volume) t.shards

let call t req =
  match (req : Wire.request) with
  | Stats -> Wire.Ok_stats (report_json t)
  | Shutdown -> Wire.Err Errno.EINVAL (* in-process callers use {!shutdown} *)
  | _ -> (
    let cell = ref None in
    let m = Mutex.create () in
    let cv = Condition.create () in
    let complete r =
      Mutex.lock m;
      cell := Some r;
      Condition.broadcast cv;
      Mutex.unlock m
    in
    match submit t req ~complete with
    | Error e -> Wire.Err e
    | Ok () -> (
      (match t.pool with
      | None -> drive t
      | Some _ ->
        Mutex.lock m;
        while !cell = None do
          Condition.wait cv m
        done;
        Mutex.unlock m);
      match !cell with
      (* read payloads live in the shared reply arena; the in-process
         boundary hands the caller a private heap copy instead of a
         slice whose cell is about to recycle *)
      | Some r -> Wire.detach_reply r
      | None -> Wire.Err Errno.EIO))

(* {2 The socket listener}

   One [`Real] scheduler on the calling domain multiplexes every
   connection: a reader fibre per connection reassembles frames and
   submits, shard completions cross back over a completion queue plus
   wake pipe, and a per-connection writer fibre serializes replies
   (out-of-order by design — the request id correlates). *)

(* One outbound message: a typed reply still owning its (possibly
   arena-backed) payload, or a pre-encoded frame body (server pushes). *)
type out_msg =
  | Reply of { req_id : int; opcode : int; reply : Wire.reply }
  | Raw of { req_id : int; opcode : int; payload : string }

type conn = {
  fd : Unix.file_descr;
  outbox : out_msg Queue.t;
  out_ev : Sched.event;
  mutable closed : bool;
  mutable batch_ok : bool;
      (* peer has spoken the batch/grant vocabulary: it can decode a
         Batch container, and pushes may be sent to it *)
  mutable gather : Bytes.t; (* reusable writer buffer, grows to fit *)
  mutable pusher_ids : int list; (* client ids registered via Open_grant *)
}

(* How many pending messages one gathered write may carry. *)
let max_gather_msgs = 64

let serve t lfd =
  (match t.pool with
  | Some _ -> ()
  | None -> invalid_arg "Server.serve: needs a real-clock server");
  let sd = t.shared in
  let ls = Sched.create ~clock:`Real () in
  let cq = Queue.create () in
  let cq_lock = Mutex.create () in
  let cq_r, cq_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock cq_r;
  Unix.set_nonblock cq_w;
  let stop = ref false in
  let poke_listener () =
    match Unix.write_substring cq_w "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* shard domains land replies (and pushes) here *)
  let enqueue_remote conn msg =
    Mutex.lock cq_lock;
    Queue.push (conn, msg) cq;
    Mutex.unlock cq_lock;
    poke_listener ()
  in
  (* messages produced on the listener domain itself skip the queue *)
  let enqueue_local conn msg =
    if conn.closed then
      (* drop, but never leak a reply's arena cell *)
      match msg with
      | Reply { reply; _ } -> Wire.release_reply reply
      | Raw _ -> ()
    else begin
      Queue.push msg conn.outbox;
      Sched.signal ls conn.out_ev
    end
  in
  let writer conn () =
    let ensure len =
      if Bytes.length conn.gather < len then begin
        let cap = ref (max 4096 (Bytes.length conn.gather)) in
        while !cap < len do
          cap := !cap * 2
        done;
        conn.gather <- Bytes.create !cap
      end
    in
    let flush len =
      match Frame.write_bytes ~sched:ls conn.fd conn.gather ~len with
      | Ok sys ->
        ignore (Atomic.fetch_and_add sd.w_syscalls sys);
        Atomic.incr sd.w_frames
      | Error _ -> conn.closed <- true
    in
    let payload_len = function
      | Reply { reply; _ } -> Wire.reply_bytes reply
      | Raw { payload; _ } -> String.length payload
    in
    (* lay one message at [off]: entry/frame header then payload,
       straight from the arena slice — no intermediate string *)
    let blit_msg ~entry msg off plen =
      (match msg with
      | Reply { req_id; opcode; _ } | Raw { req_id; opcode; _ } ->
        if entry then
          Wire.Batch.blit_entry_header conn.gather off ~req_id ~opcode
            ~payload_len:plen
        else
          Frame.blit_header conn.gather off ~req_id ~opcode
            ~payload_len:plen);
      let body =
        off + if entry then Wire.Batch.entry_header else Frame.header_bytes
      in
      match msg with
      | Reply { reply; _ } ->
        Wire.blit_reply reply conn.gather body;
        Wire.release_reply reply
      | Raw { payload; _ } ->
        Bytes.blit_string payload 0 conn.gather body plen
    in
    let rec loop () =
      if Queue.is_empty conn.outbox then
        if conn.closed then ()
        else begin
          Sched.await ls conn.out_ev;
          loop ()
        end
      else begin
        (* gather whatever is pending — capped by count and by the
           container payload limit — into one write(2) *)
        let limit = if conn.batch_ok then max_gather_msgs else 1 in
        let msgs = ref [] in
        let total = ref 0 in
        let count = ref 0 in
        let stop_gather = ref false in
        while
          (not !stop_gather)
          && !count < limit
          && not (Queue.is_empty conn.outbox)
        do
          let m = Queue.peek conn.outbox in
          let plen = payload_len m in
          if
            !count = 0
            || !total + Wire.Batch.entry_header + plen
               <= Frame.default_max_payload
          then begin
            ignore (Queue.pop conn.outbox);
            msgs := (m, plen) :: !msgs;
            total := !total + Wire.Batch.entry_header + plen;
            incr count
          end
          else stop_gather := true
        done;
        (match List.rev !msgs with
        | [] -> ()
        | [ (m, plen) ] ->
          let len = Frame.header_bytes + plen in
          ensure len;
          blit_msg ~entry:false m 0 plen;
          flush len
        | batch ->
          let len = Frame.header_bytes + !total in
          ensure len;
          Frame.blit_header conn.gather 0 ~req_id:0
            ~opcode:Wire.Batch.opcode ~payload_len:!total;
          let off = ref Frame.header_bytes in
          List.iter
            (fun (m, plen) ->
              blit_msg ~entry:true m !off plen;
              off := !off + Wire.Batch.entry_header + plen)
            batch;
          ignore (Atomic.fetch_and_add sd.w_batched (List.length batch));
          flush len);
        loop ()
      end
    in
    loop ()
  in
  let reader conn () =
    let process req_id opcode payload =
      match Wire.decode_request ~opcode payload with
      | Error e -> enqueue_local conn (Reply { req_id; opcode; reply = Wire.Err e })
      | Ok Wire.Shutdown ->
        (* no reply: the client closes, a clean exit acknowledges *)
        stop := true;
        poke_listener ()
      | Ok Wire.Stats ->
        enqueue_local conn
          (Reply { req_id; opcode; reply = Wire.Ok_stats (report_json t) })
      | Ok req -> (
        (match req with
        | Wire.Open_grant { client; _ } ->
          (* the grant vocabulary implies batch fluency, and names the
             connection as this client's push channel *)
          conn.batch_ok <- true;
          if not (List.mem client conn.pusher_ids) then begin
            conn.pusher_ids <- client :: conn.pusher_ids;
            register_pusher t ~client (fun push ->
                let opcode, payload = Wire.encode_push push in
                enqueue_remote conn
                  (Raw { req_id = Wire.push_req_id; opcode; payload }))
          end
        | _ -> ());
        match
          submit t req ~complete:(fun r ->
              enqueue_remote conn (Reply { req_id; opcode; reply = r }))
        with
        | Ok () -> ()
        | Error e ->
          enqueue_local conn (Reply { req_id; opcode; reply = Wire.Err e }))
    in
    let rec loop () =
      match Frame.read_sched ls conn.fd with
      | Ok (Some { Frame.req_id; opcode; payload })
        when opcode = Wire.Batch.opcode -> (
        conn.batch_ok <- true;
        match Wire.Batch.decode payload with
        | Error e ->
          enqueue_local conn (Reply { req_id; opcode; reply = Wire.Err e });
          loop ()
        | Ok entries ->
          List.iter (fun (rid, op, pl) -> process rid op pl) entries;
          loop ())
      | Ok (Some { Frame.req_id; opcode; payload }) ->
        process req_id opcode payload;
        loop ()
      | Ok None | Error _ ->
        conn.closed <- true;
        (* a dead connection stops caching: drop its push channels and
           every lease its clients held *)
        List.iter
          (fun cid ->
            unregister_pusher t ~client:cid;
            ignore (Lease.drop_client sd.lease ~client:cid))
          conn.pusher_ids;
        conn.pusher_ids <- [];
        Sched.signal ls conn.out_ev
    in
    loop ()
  in
  let conns = ref [] in
  let accept_loop () =
    let rec loop () =
      Sched.wait_readable ls lfd;
      (match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          {
            fd;
            outbox = Queue.create ();
            out_ev = Sched.new_event ls;
            closed = false;
            batch_ok = false;
            gather = Bytes.create 4096;
            pusher_ids = [];
          }
        in
        conns := conn :: !conns;
        ignore (Sched.spawn ls ~daemon:true ~name:"conn.read" (reader conn));
        ignore (Sched.spawn ls ~daemon:true ~name:"conn.write" (writer conn))
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ());
      loop ()
    in
    loop ()
  in
  let drain_cq () =
    Mutex.lock cq_lock;
    let pending = List.rev (Queue.fold (fun acc x -> x :: acc) [] cq) in
    Queue.clear cq;
    Mutex.unlock cq_lock;
    List.iter (fun (conn, msg) -> enqueue_local conn msg) pending
  in
  let completion_pump () =
    let buf = Bytes.create 256 in
    let rec loop () =
      Sched.wait_readable ls cq_r;
      (match Unix.read cq_r buf 0 256 with
      | _ -> ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ());
      drain_cq ();
      let quiescent =
        !stop
        && Array.for_all (fun sh -> Atomic.get sh.in_flight = 0) t.shards
        && Queue.is_empty cq
      in
      if quiescent then
        (* one breath for writer fibres to flush their outboxes *)
        Sched.sleep ls 0.05
      else loop ()
    in
    loop ()
  in
  ignore (Sched.spawn ls ~daemon:true ~name:"accept" accept_loop);
  ignore (Sched.spawn ls ~name:"completion-pump" completion_pump);
  Sched.run ls;
  List.iter
    (fun conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ())
    !conns;
  Unix.close cq_r;
  Unix.close cq_w;
  shutdown t
