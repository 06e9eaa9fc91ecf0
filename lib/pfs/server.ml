module Sched = Capfs_sched.Sched
module Errno = Capfs_core.Errno
module Frame = Capfs_ccache.Netlink.Frame
module Counter = Capfs_stats.Counter
module Registry = Capfs_stats.Registry
module Snapshot = Capfs_stats.Snapshot
module Json = Capfs_stats.Json
module Client = Capfs.Client
module Data = Capfs_disk.Data

let src = Logs.Src.create "capfs.server" ~doc:"sharded PFS server"

module Log = (val Logs.src_log src : Logs.LOG)

(* Consistency and data-plane state common to every shard: the lease
   table (any shard may grant or invalidate), the push sinks (client id
   -> how to reach its connection), the shared reply arena (read
   payloads filled on the serving shard's domain, blitted and freed by
   the connection's writer, which may live on another — hence
   [~shared]), and the wire counters. *)
type shared = {
  lease : Lease.t;
  pushers : (int, Wire.push -> unit) Hashtbl.t;
  pushers_lock : Mutex.t;
  reply_arena : Capfs_disk.Arena.t;
  w_blit : int Atomic.t; (* server-path payload blits *)
  w_copied : int Atomic.t; (* bytes those blits moved *)
  w_frames : int Atomic.t; (* frames put on the wire *)
  w_syscalls : int Atomic.t; (* write(2) calls that carried them *)
  w_reads : int Atomic.t; (* read(2) calls that returned bytes *)
  w_received : int Atomic.t; (* frames cut out of those reads *)
}

(* One outbound message: a typed reply still owning its (possibly
   arena-backed) payload, or a pre-encoded frame body (server pushes). *)
type out_msg =
  | Reply of { req_id : int; opcode : int; reply : Wire.reply }
  | Raw of { req_id : int; opcode : int; payload : string }

type shard = {
  s_index : int;
  volume : Pfs.t;
  s_shared : shared;
  s_registry : Registry.t;
  inbox : (unit -> unit) Queue.t;
      (* work other domains hand this one: a request, a reply or push
         owed to one of its connections, a connection to host *)
  lock : Mutex.t;
  in_flight : int Atomic.t;
  stopping : bool Atomic.t;
  wake : (Unix.file_descr * Unix.file_descr) option;
      (* (read, write) self-pipe, real clock only: posters poke the
         write end, the shard's pump fibre parks on the read end *)
  mutable conns : conn list; (* hosted here; touched only on this domain *)
  c_submitted : Counter.t;
  c_rejected : Counter.t;
  c_completed : Counter.t;
}

(* A socket connection lives on one shard's domain: its reader and
   writer fibres run on that shard's scheduler. *)
and conn = {
  fd : Unix.file_descr;
  home : shard;
  outbox : out_msg Queue.t;
  out_ev : Sched.event;
  mutable closed : bool;
  mutable gather : Bytes.t; (* reusable writer buffer, grows to fit *)
  mutable pusher_ids : int list; (* client ids registered via Open_grant *)
  mutable fibres : int; (* live reader/writer fibres; the last closes [fd] *)
}

type t = {
  config : Pfs.Config.t;
  shards : shard array;
  shared : shared;
  domains : unit Domain.t array; (* one per shard under [`Real], else none *)
  stopped : bool Atomic.t;
}

let register_pusher t ~client sink =
  Mutex.lock t.shared.pushers_lock;
  Hashtbl.replace t.shared.pushers client sink;
  Mutex.unlock t.shared.pushers_lock

(* Fan a lease notice out to the connections of the clients it names:
   one [Invalidate] with the path's version and cacheability now. Runs
   on a shard domain mid-[exec], or at a hang-up; connection sinks only
   enqueue (here or on the connection's domain), so no I/O happens
   under the lock. *)
let deliver_invalidations sd ~path (n : Lease.notice) =
  if n.Lease.n_notify <> [] then begin
    Mutex.lock sd.pushers_lock;
    let sinks = List.filter_map (Hashtbl.find_opt sd.pushers) n.n_notify in
    Mutex.unlock sd.pushers_lock;
    let push =
      Wire.Invalidate
        { path; version = n.n_version; cacheable = n.n_cacheable }
    in
    List.iter (fun sink -> sink push) sinks
  end

(* A client is gone: forget its push channel and release every hold it
   had, pushing the restorations that owes the holders left. *)
let drop_client t ~client =
  Mutex.lock t.shared.pushers_lock;
  Hashtbl.remove t.shared.pushers client;
  Mutex.unlock t.shared.pushers_lock;
  List.iter
    (fun (path, n) -> deliver_invalidations t.shared ~path n)
    (Lease.drop_client t.shared.lease ~client)

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

let shards t = Array.length t.shards
let route t path = fnv1a (first_component path) mod shards t

(* {2 Request execution — inside a fibre on the shard's scheduler} *)

(* A mutation through the old, grant-free vocabulary must still keep
   granted caches honest: bump the path's version and push it to every
   holder (minus the mutator), with the path's cacheability. No-op for
   never-granted paths. *)
let note_mutation sd ~client ~path =
  Option.iter (deliver_invalidations sd ~path)
    (Lease.note_write sd.lease ~client ~path)

(* Release a grant; a close that ends write sharing pushes the
   restoration to the holders left. *)
let release_grant sd ~client ~path =
  Option.iter (deliver_invalidations sd ~path)
    (Lease.close_ sd.lease ~client ~path)

let unit_reply = function Ok () -> Wire.Ok_unit | Error e -> Wire.Err e

(* A request's data, handed over without a copy: the decoder made the
   string for this request alone, and [Client.write] takes ownership
   (the cache copies it once, into its slab). *)
let request_data data = Data.Real (Bytes.unsafe_of_string data)

(* Each request is one abstract-client call; the wire adds no
   namespace logic of its own. *)
let exec sh req =
  let c = sh.volume.Pfs.client in
  let sd = sh.s_shared in
  match (req : Wire.request) with
  | Open { client; path; mode } ->
    unit_reply (Client.open_ c ~client path mode)
  | Close { client; path } -> (
    release_grant sd ~client ~path;
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
    match Client.write c ~client path ~offset (request_data data) with
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
        let n = Lease.open_grant sd.lease ~client ~path ~write in
        deliver_invalidations sd ~path n;
        Wire.Ok_grant
          {
            Wire.version = n.Lease.n_version;
            cacheable = n.Lease.n_cacheable;
            lease_s = Lease.lease_s sd.lease;
            size = st.Client.st_size;
          }))
  | Writeback { client; path; size; close; blocks } -> (
    let rec apply = function
      | [] -> Ok ()
      | (off, data) :: rest -> (
        match
          Client.write c ~client path ~offset:off (request_data data)
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
        release_grant sd ~client ~path;
        match Client.close_ c ~client path with
        | Ok () -> Wire.Ok_unit
        | Error e -> Wire.Err e
      end
      else Wire.Ok_unit)
  | Mkdir p -> unit_reply (Client.mkdir c p)
  | Rmdir p -> unit_reply (Client.rmdir c p)
  | Symlink { target; path } -> unit_reply (Client.symlink c ~target path)
  | Readlink p -> (
    match Client.readlink c p with
    | Ok target -> Wire.Ok_link target
    | Error e -> Wire.Err e)
  | Readdir p -> (
    match Client.readdir c p with
    | Ok entries ->
      Wire.Ok_names (List.map (fun e -> e.Capfs.Dir.name) entries)
    | Error e -> Wire.Err e)
  | Truncate { path; size } -> (
    match Client.truncate c path ~size with
    | Ok () ->
      note_mutation sd ~client:(-1) ~path;
      Wire.Ok_unit
    | Error e -> Wire.Err e)
  | Rename { src; dst } -> (
    match Client.rename c ~src ~dst with
    | Ok () ->
      note_mutation sd ~client:(-1) ~path:src;
      note_mutation sd ~client:(-1) ~path:dst;
      Wire.Ok_unit
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
  | Sync -> unit_reply (Client.sync c)
  | Stats | Shutdown ->
    (* server-level operations never reach a shard *)
    Wire.Err Errno.EINVAL

(* [complete] runs before the slot is released: a shard at rest owes
   no reply to anyone, which is what the shutdown drain waits for. *)
let start_job sh req complete =
  Counter.incr sh.c_submitted;
  ignore
    (Sched.spawn sh.volume.Pfs.sched ~name:"shard.req" (fun () ->
         let reply =
           try exec sh req with
           | Errno.Error e -> Wire.Err e
           | e ->
             Log.err (fun m ->
                 m "shard %d: request crashed: %s" sh.s_index
                   (Printexc.to_string e));
             Wire.Err Errno.EIO
         in
         Counter.incr sh.c_completed;
         complete reply;
         Atomic.decr sh.in_flight))

(* {2 Domains and the inbox}

   Under [`Real] each shard's domain runs one scheduler for the whole
   life of its requests: the connection fibres it hosts, the requests
   it serves, their replies. Only work that crosses domains goes
   through the target's inbox and self-pipe. Under [`Virtual] there
   are no shard domains; every hand-off goes through the inbox and
   {!drive} pumps it. *)

(* The shard whose domain the caller is running on, if any: set once,
   when a shard's domain starts. *)
let domain_shard : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let on_domain sh =
  match Domain.DLS.get domain_shard with Some s -> s == sh | None -> false

let close_wake sh =
  Option.iter
    (fun (r, w) ->
      Unix.close r;
      Unix.close w)
    sh.wake

let poke sh =
  match sh.wake with
  | None -> ()
  | Some (_, w) -> (
    match Unix.write_substring w "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      () (* pipe full: the pump is already overdue to wake *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* Hand [f] to [sh]'s domain: it runs there at the next inbox drain,
   outside any request, and must not block. *)
let post sh f =
  Mutex.lock sh.lock;
  Queue.push f sh.inbox;
  Mutex.unlock sh.lock;
  poke sh

(* Run [f] on [sh]'s domain: right here when the caller is already
   on it, else through the inbox. *)
let on_shard sh f = if on_domain sh then f () else post sh f

(* Run everything posted so far; [true] when there was anything. *)
let run_inbox sh =
  Mutex.lock sh.lock;
  let posted = List.rev (Queue.fold (fun acc f -> f :: acc) [] sh.inbox) in
  Queue.clear sh.inbox;
  Mutex.unlock sh.lock;
  List.iter (fun f -> f ()) posted;
  posted <> []

(* {2 Admission and submission}

   [submit] runs on the caller's domain. The admission check is a CAS
   loop on [in_flight]: a full shard answers a typed [EAGAIN] {e before}
   any queueing happens, so overload costs the client one round-trip
   and the server almost nothing. An admitted request for the caller's
   own shard is spawned right here; any other goes through its shard's
   inbox. Every counter of a shard is written on its own domain, so a
   refusal made elsewhere is counted through the inbox too. *)

let rec admit sh limit =
  let cur = Atomic.get sh.in_flight in
  if limit > 0 && cur >= limit then false
  else if Atomic.compare_and_set sh.in_flight cur (cur + 1) then true
  else admit sh limit

let submit_to_shard t sh req complete =
  if Atomic.get sh.stopping || not (admit sh t.config.Pfs.Config.admission)
  then begin
    on_shard sh (fun () -> Counter.incr sh.c_rejected);
    Error Errno.EAGAIN
  end
  else begin
    on_shard sh (fun () -> start_job sh req complete);
    Ok ()
  end

(* Merge one reply per shard: the first error in shard order, else the
   union of the listings (a root [Readdir]) or [Ok_unit] (a [Sync]). *)
let merge_replies replies =
  match Array.find_opt (function Wire.Err _ -> true | _ -> false) replies with
  | Some err -> err
  | None -> (
    match replies.(0) with
    | Wire.Ok_names _ ->
      Wire.Ok_names
        (Array.to_list replies
        |> List.concat_map (function Wire.Ok_names l -> l | _ -> [])
        |> List.sort_uniq compare)
    | r -> r)

(* Send [req] to every shard and complete once, after the slowest one
   answers. A shard that refuses admission counts as an [EAGAIN] answer;
   when every shard refuses, the whole request is refused. Each shard
   writes only its own slot of [replies], and the atomic countdown
   publishes those writes to whichever domain completes last. *)
let fan_out t req ~complete =
  let n = shards t in
  let replies = Array.make n Wire.Ok_unit in
  let pending = Atomic.make n in
  let finish k =
    if Atomic.fetch_and_add pending (-k) = k then
      complete (merge_replies replies)
  in
  let rejected = ref 0 in
  Array.iteri
    (fun i sh ->
      let complete r =
        replies.(i) <- r;
        finish 1
      in
      match submit_to_shard t sh req complete with
      | Ok () -> ()
      | Error e ->
        replies.(i) <- Wire.Err e;
        incr rejected)
    t.shards;
  if !rejected = n then Error Errno.EAGAIN
  else begin
    if !rejected > 0 then finish !rejected;
    Ok ()
  end

let submit t req ~complete =
  match (req : Wire.request) with
  | Sync -> fan_out t req ~complete
  | Readdir p when shards t > 1 && Capfs.Namespace.normalize p = "/" ->
    fan_out t req ~complete
  | Rename { src; dst } when route t src <> route t dst -> Error Errno.EXDEV
  | _ -> (
    match Wire.route_path req with
    | Some path -> submit_to_shard t t.shards.(route t path) req complete
    | None -> Error Errno.EINVAL (* [Stats]/[Shutdown]: server-level *))

(* {2 The shard service loop}

   A non-daemon pump fibre parks on the self-pipe and runs whatever
   other domains posted. When [stopping] is observed it keeps draining
   until no shard has a request in flight — every reply owed to this
   domain's connections has then been posted — gives the writer fibres
   one breath, drains once more and exits. [Sched.run] then returns,
   and the domain syncs and closes its volume. *)

let pump shards sh =
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
    ignore (run_inbox sh);
    if Atomic.get sh.stopping then wind_down () else loop ()
  and wind_down () =
    if Array.exists (fun s -> Atomic.get s.in_flight > 0) shards then begin
      Sched.sleep sched 0.001;
      ignore (run_inbox sh);
      wind_down ()
    end
    else begin
      Sched.sleep sched 0.05;
      ignore (run_inbox sh)
    end
  in
  loop ()

let shard_main shards sh () =
  Domain.DLS.set domain_shard (Some sh);
  let sched = sh.volume.Pfs.sched in
  ignore (Sched.spawn sched ~name:"shard.pump" (fun () -> pump shards sh));
  let guard what f =
    try f ()
    with e ->
      Log.err (fun m ->
          m "shard %d: %s: %s" sh.s_index what (Printexc.to_string e))
  in
  guard "scheduler died" (fun () -> Sched.run sched);
  guard "volume shutdown failed" (fun () -> Pfs.shutdown sh.volume);
  (* connections still open at shutdown; their fibres never run again *)
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    sh.conns

(* Virtual clock: the caller pumps explicitly. [drive] runs every
   inbox, runs every shard scheduler to quiescence, and repeats until
   nothing moved (a completion may submit follow-up work). Identical
   request path — only the wake-up mechanism differs. *)

let real t = t.config.Pfs.Config.clock = `Real

let drive t =
  if real t then invalid_arg "Server.drive: real-clock server pumps itself";
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun sh ->
        if run_inbox sh then begin
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
        w_reads = Atomic.make 0;
        w_received = Atomic.make 0;
      }
    in
    let built = ref [] in
    let destroy_built () =
      List.iter
        (fun sh ->
          Pfs.shutdown sh.volume;
          close_wake sh)
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
              conns = [];
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
      let domains =
        if real then
          Array.map (fun sh -> Domain.spawn (shard_main shards sh)) shards
        else [||]
      in
      Ok { config = cfg; shards; shared; domains; stopped = Atomic.make false })

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
  let int n = Json.Num (float_of_int n) in
  let sd = t.shared in
  Json.Obj
    [
      ("shards", int (Array.length t.shards));
      ( "per_shard",
        Json.Arr
          (Array.to_list
             (Array.mapi
                (fun i snap ->
                  Json.Obj
                    [ ("index", int i); ("stats", Snapshot.to_json snap) ])
                (snapshots t))) );
      ("totals", Snapshot.to_json (merged t));
      ( "wire",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (Capfs_stats.Names.wire name, int (Atomic.get v)))
             [
               ("frames_sent", sd.w_frames);
               ("syscalls", sd.w_syscalls);
               ("reads", sd.w_reads);
               ("frames_received", sd.w_received);
               ("blit_count", sd.w_blit);
               ("copied_bytes", sd.w_copied);
             ]) );
    ]

let stats_reply t = Wire.Ok_stats (Json.to_string (report_json t))

(* {2 Shutdown and the blocking call} *)

let rec shutdown t =
  if Atomic.compare_and_set t.stopped false true then shutdown_once t

and shutdown_once t =
  Array.iter (fun sh -> Atomic.set sh.stopping true) t.shards;
  if real t then begin
    Array.iter poke t.shards;
    Array.iter Domain.join t.domains;
    Array.iter close_wake t.shards
  end
  else begin
    (* run whatever was still queued, then close each volume *)
    Array.iter
      (fun sh -> if run_inbox sh then Sched.run sh.volume.Pfs.sched)
      t.shards;
    Array.iter (fun sh -> Pfs.shutdown sh.volume) t.shards
  end

let call t req =
  match (req : Wire.request) with
  | Stats -> stats_reply t
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
      if real t then begin
        Mutex.lock m;
        while !cell = None do
          Condition.wait cv m
        done;
        Mutex.unlock m
      end
      else drive t;
      match !cell with
      (* read payloads live in the shared reply arena; the in-process
         boundary hands the caller a private heap copy instead of a
         slice whose cell is about to recycle *)
      | Some r -> Wire.detach_reply r
      | None -> Wire.Err Errno.EIO))

(* {2 The socket front door}

   An accept fibre on shard 0's scheduler deals connections round-robin
   to the shard domains. The domain a connection lands on hosts its
   reader fibre, which reassembles frames and submits, and its writer
   fibre, which serializes replies (out of order by design — the
   request id correlates). A request for that same shard never leaves
   the domain; a reply or push owed by another domain arrives through
   this one's inbox. *)

(* How many pending messages one gathered write may carry. *)
let max_gather_msgs = 64

let sched_of conn = conn.home.volume.Pfs.sched

(* On the connection's domain: queue for its writer, or drop (but never
   leak a reply's arena cell) once the connection is gone. *)
let enqueue conn msg =
  if conn.closed then
    match msg with
    | Reply { reply; _ } -> Wire.release_reply reply
    | Raw _ -> ()
  else begin
    Queue.push msg conn.outbox;
    Sched.signal (sched_of conn) conn.out_ev
  end

let deliver conn msg = on_shard conn.home (fun () -> enqueue conn msg)

(* The second of a connection's fibres to finish closes its descriptor
   and forgets it. *)
let fibre_done conn =
  conn.fibres <- conn.fibres - 1;
  if conn.fibres = 0 then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    conn.home.conns <- List.filter (fun c -> c != conn) conn.home.conns
  end

let writer sd conn () =
  let sched = sched_of conn in
  let grow len used =
    if Bytes.length conn.gather < len then begin
      let cap = ref (Bytes.length conn.gather) in
      while !cap < len do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit conn.gather 0 b 0 used;
      conn.gather <- b
    end
  in
  let payload_len = function
    | Reply { reply; _ } -> Wire.reply_bytes reply
    | Raw { payload; _ } -> String.length payload
  in
  let rec loop () =
    if Queue.is_empty conn.outbox then
      if conn.closed then ()
      else begin
        Sched.await sched conn.out_ev;
        loop ()
      end
    else begin
      (* lay whatever is pending — up to [max_gather_msgs] frames or
         1 MiB — back to back, each reply straight from its arena slice,
         and hand the lot to one write(2) *)
      let len = ref 0 and count = ref 0 in
      while
        !count < max_gather_msgs
        && (not (Queue.is_empty conn.outbox))
        && (!count = 0
           || !len + Frame.header_bytes + payload_len (Queue.peek conn.outbox)
              <= Frame.default_max_payload)
      do
        let m = Queue.pop conn.outbox in
        let plen = payload_len m in
        let body = !len + Frame.header_bytes in
        grow (body + plen) !len;
        (match m with
        | Reply { req_id; opcode; reply } ->
          Frame.blit_header conn.gather !len ~req_id ~opcode ~payload_len:plen;
          Wire.blit_reply reply conn.gather body;
          Wire.release_reply reply
        | Raw { req_id; opcode; payload } ->
          Frame.blit_header conn.gather !len ~req_id ~opcode ~payload_len:plen;
          Bytes.blit_string payload 0 conn.gather body plen);
        len := body + plen;
        incr count
      done;
      (match Frame.write_bytes ~sched conn.fd conn.gather ~len:!len with
      | Ok sys ->
        ignore (Atomic.fetch_and_add sd.w_syscalls sys);
        ignore (Atomic.fetch_and_add sd.w_frames !count)
      | Error _ -> conn.closed <- true);
      loop ()
    end
  in
  loop ()

let reader t conn ~on_shutdown () =
  let sd = t.shared in
  let sched = sched_of conn in
  let sp = Frame.Splitter.create () in
  (* decode in place from the receive buffer: the request copies out
     only its own strings *)
  let process ~req_id ~opcode buf off len =
    match Wire.decode_request_window ~opcode buf ~off ~len with
    | Error e -> enqueue conn (Reply { req_id; opcode; reply = Wire.Err e })
    | Ok Wire.Shutdown ->
      (* no reply: the client closes, a clean exit acknowledges *)
      on_shutdown ()
    | Ok Wire.Stats ->
      enqueue conn
        (Reply { req_id; opcode; reply = stats_reply t })
    | Ok req -> (
      (match req with
      | Wire.Open_grant { client; _ } ->
        (* the grant names the connection as this client's push channel *)
        if not (List.mem client conn.pusher_ids) then begin
          conn.pusher_ids <- client :: conn.pusher_ids;
          register_pusher t ~client (fun push ->
              let opcode, payload = Wire.encode_push push in
              deliver conn (Raw { req_id = Wire.push_req_id; opcode; payload }))
        end
      | _ -> ());
      match
        submit t req ~complete:(fun r ->
            deliver conn (Reply { req_id; opcode; reply = r }))
      with
      | Ok () -> ()
      | Error e -> enqueue conn (Reply { req_id; opcode; reply = Wire.Err e }))
  in
  (* every complete frame in the buffer; [false] on a protocol error *)
  let rec drain n =
    match Frame.Splitter.pop_with sp process with
    | Ok (Some ()) -> drain (n + 1)
    | r ->
      ignore (Atomic.fetch_and_add sd.w_received n);
      Result.is_ok r
  in
  let hang_up () =
    conn.closed <- true;
    (* a dead connection stops caching: drop its push channels and
       every lease its clients held *)
    List.iter (fun cid -> drop_client t ~client:cid) conn.pusher_ids;
    conn.pusher_ids <- [];
    Sched.signal sched conn.out_ev
  in
  (* one read(2) per burst; after a short read the socket is drained,
     so the fibre parks until the kernel has more *)
  let rec loop () =
    match Frame.Splitter.fill sp conn.fd with
    | Ok ((`Short | `Full) as got) ->
      Atomic.incr sd.w_reads;
      if drain 0 then begin
        if got = `Short then Sched.wait_readable sched conn.fd;
        loop ()
      end
      else hang_up ()
    | Error Errno.EAGAIN ->
      Sched.wait_readable sched conn.fd;
      loop ()
    | Ok `Eof | Error _ -> hang_up ()
  in
  loop ()

(* On [home]'s domain: adopt an accepted descriptor. *)
let host t home fd ~on_shutdown =
  let sched = home.volume.Pfs.sched in
  let conn =
    {
      fd;
      home;
      outbox = Queue.create ();
      out_ev = Sched.new_event sched;
      closed = false;
      gather = Bytes.create 4096;
      pusher_ids = [];
      fibres = 2;
    }
  in
  home.conns <- conn :: home.conns;
  let spawn name f =
    ignore
      (Sched.spawn sched ~daemon:true ~name (fun () ->
           f ();
           fibre_done conn))
  in
  spawn "conn.read" (reader t conn ~on_shutdown);
  spawn "conn.write" (writer t.shared conn)

let accept_loop t lfd ~on_shutdown () =
  let sched = t.shards.(0).volume.Pfs.sched in
  let next = ref 0 in
  let rec loop () =
    Sched.wait_readable sched lfd;
    (match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let home = t.shards.(!next) in
      next := (!next + 1) mod shards t;
      on_shard home (fun () -> host t home fd ~on_shutdown)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ());
    loop ()
  in
  loop ()

let serve t lfd =
  if not (real t) then invalid_arg "Server.serve: needs a real-clock server";
  (* a peer that hangs up mid-reply must cost only its own connection:
     with SIGPIPE ignored the write fails with EPIPE, a typed error
     that closes just that connection *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let on_shutdown () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let s0 = t.shards.(0) in
  post s0 (fun () ->
      ignore
        (Sched.spawn s0.volume.Pfs.sched ~daemon:true ~name:"accept"
           (accept_loop t lfd ~on_shutdown)));
  Mutex.lock m;
  while not !stop do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  shutdown t
