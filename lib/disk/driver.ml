module Sched = Capfs_sched.Sched
module Stats = Capfs_stats
module Counter = Capfs_stats.Counter
module Tracer = Capfs_obs.Tracer
module Ev = Capfs_obs.Event
module Errno = Capfs_core.Errno
module Injector = Capfs_fault.Injector

type transport = {
  t_name : string;
  sector_bytes : int;
  total_sectors : int;
  execute : queue_empty:(unit -> bool) -> Iorequest.t -> unit;
  current_cylinder : unit -> int;
  close : unit -> unit;
}

let sim_transport disk =
  let model = Sim_disk.model disk in
  {
    t_name = Sim_disk.name disk;
    sector_bytes = model.Disk_model.geometry.Geometry.sector_bytes;
    total_sectors = Sim_disk.capacity_sectors disk;
    execute = (fun ~queue_empty req -> Sim_disk.execute disk ~queue_empty req);
    current_cylinder = (fun () -> Sim_disk.current_cylinder disk);
    close = ignore;
  }

let mem_transport ?(latency = 0.) ~sector_bytes ~total_sectors sched () =
  if sector_bytes < 1 || total_sectors < 1 then
    invalid_arg "Driver.mem_transport: non-positive size";
  let store = Hashtbl.create 4096 in
  let execute ~queue_empty:_ (req : Iorequest.t) =
    if Iorequest.last_lba req > total_sectors then
      invalid_arg "mem_transport: request beyond capacity";
    req.Iorequest.started_at <- Sched.now sched;
    if latency > 0. then Sched.sleep sched latency;
    (match req.Iorequest.op with
    | Iorequest.Read ->
      let out = Bytes.make (req.Iorequest.sectors * sector_bytes) '\000' in
      for i = 0 to req.Iorequest.sectors - 1 do
        match Hashtbl.find_opt store (req.Iorequest.lba + i) with
        | Some b -> Bytes.blit b 0 out (i * sector_bytes) sector_bytes
        | None -> ()
      done;
      req.Iorequest.data <- Some (Data.Real out)
    | Iorequest.Write -> (
      match req.Iorequest.data with
      | Some d ->
        let nsec = Data.length d / sector_bytes in
        for i = 0 to nsec - 1 do
          (* a sector-sized sub of a block-aligned gather normalises to
             the underlying Real/Sim slice, so only a misaligned gather
             needs flattening *)
          match Data.sub d ~pos:(i * sector_bytes) ~len:sector_bytes with
          | Data.Real b -> Hashtbl.replace store (req.Iorequest.lba + i) b
          | Data.Sim _ -> Hashtbl.remove store (req.Iorequest.lba + i)
          | Data.Gather _ as g ->
            Hashtbl.replace store
              (req.Iorequest.lba + i)
              (Bytes.of_string (Data.to_string g))
        done
      | None -> ()));
    Iorequest.complete sched req
  in
  {
    t_name = "memdisk";
    sector_bytes;
    total_sectors;
    execute;
    current_cylinder = (fun () -> 0);
    close = ignore;
  }

type t = {
  drv_name : string;
  sched : Sched.t;
  transport : transport;
  policy : Iosched.t;
  work : Sched.event;
  mutable in_service : bool;
  mutable idle_ev : Sched.event;
  injector : Injector.t; (* cached off the scheduler at create time *)
  coalesce : bool;
  max_merge_sectors : int;
  max_retries : int;
  retry_backoff : float;
  timeout : float option;
  mutable n_retries : int;
  mutable n_timeouts : int;
  mutable n_errors : int;
  mutable n_merges : int;
  c_wait : Counter.t;
  c_response : Counter.t;
  c_queue_len : Counter.t;
  c_retries : Counter.t;
  c_errors : Counter.t;
  c_merged : Counter.t;
  c_merge_span : Counter.t;
  c_blit : Counter.t;
  c_copied : Counter.t;
}

let emit_fault t ~write ~lba ~sectors fault =
  let tr = Sched.tracer t.sched in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(Sched.now t.sched)
      (Ev.Disk_fault { disk = t.drv_name; lba; sectors; write; fault })

(* Fold [req] and its just-dequeued neighbours into one scatter-gather
   request spanning their union. Writes carry a gather payload (or, when
   spans overlap, a flattened buffer with later submissions winning);
   reads are sliced back per constituent by [Iorequest.complete]. *)
let merge_requests t (req : Iorequest.t) companions =
  let all = req :: companions in
  (* submission order *)
  let lo =
    List.fold_left
      (fun a (c : Iorequest.t) -> Stdlib.min a c.Iorequest.lba)
      req.Iorequest.lba companions
  in
  let hi =
    List.fold_left
      (fun a c -> Stdlib.max a (Iorequest.last_lba c))
      (Iorequest.last_lba req) companions
  in
  let sectors = hi - lo in
  let bps = t.transport.sector_bytes in
  let payload_of (c : Iorequest.t) =
    match c.Iorequest.data with
    | Some d -> d
    | None -> Data.sim (c.Iorequest.sectors * bps)
  in
  let data =
    match req.Iorequest.op with
    | Iorequest.Read -> None
    | Iorequest.Write ->
      let sum =
        List.fold_left (fun a (c : Iorequest.t) -> a + c.Iorequest.sectors) 0 all
      in
      if sum = sectors then
        (* gap-free and non-overlapping: sorted by lba the payloads abut
           exactly, so the gather aliases them without a copy *)
        Some
          (Data.gather
             (List.map payload_of
                (List.stable_sort
                   (fun (a : Iorequest.t) b ->
                     compare a.Iorequest.lba b.Iorequest.lba)
                   all)))
      else if
        List.exists
          (fun c ->
            match payload_of c with
            | Data.Sim _ -> false
            | Data.Real _ | Data.Gather _ -> true)
          all
      then begin
        (* overlapping spans where some payload carries real bytes (a
           gather always does): the only copy the merged write path ever
           makes — flatten, later submissions winning *)
        let out = Data.real (sectors * bps) in
        Counter.incr t.c_blit;
        Counter.record t.c_copied (float_of_int (sectors * bps));
        List.iter
          (fun (c : Iorequest.t) ->
            let d = payload_of c in
            Data.blit ~src:d ~src_pos:0 ~dst:out
              ~dst_pos:((c.Iorequest.lba - lo) * bps)
              ~len:(Data.length d))
          all;
        Some out
      end
      else Some (Data.sim (sectors * bps))
  in
  let parent =
    Iorequest.make t.sched req.Iorequest.op ~lba:lo ~sectors ?data ()
  in
  parent.Iorequest.constituents <- all;
  let count = List.length all in
  t.n_merges <- t.n_merges + 1;
  Counter.record t.c_merged (float_of_int count);
  Counter.record t.c_merge_span (float_of_int sectors);
  let tr = Sched.tracer t.sched in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(Sched.now t.sched)
      (Ev.Disk_merge
         {
           disk = t.drv_name;
           lba = lo;
           sectors;
           write = req.Iorequest.op = Iorequest.Write;
           count;
         });
  parent

let service_loop t () =
  while true do
    match
      Iosched.next t.policy ~current_cyl:(t.transport.current_cylinder ())
    with
    | None ->
      t.in_service <- false;
      Sched.broadcast t.sched t.idle_ev;
      Sched.await t.sched t.work
    | Some req ->
      t.in_service <- true;
      let req =
        if not t.coalesce then req
        else
          match
            Iosched.take_adjacent t.policy req
              ~max_sectors:t.max_merge_sectors
          with
          | [] -> req
          | companions -> merge_requests t req companions
      in
      (* One injector draw per physical request — a merged request is a
         single device transaction, so its waiters share one fate. With
         faults off this is one branch, and no PRNG state advances. *)
      (if Injector.enabled t.injector then
         let write = req.Iorequest.op = Iorequest.Write in
         let lba = req.Iorequest.lba and sectors = req.Iorequest.sectors in
         match
           Injector.decide t.injector ~disk:t.transport.t_name ~write ~lba
             ~sectors
         with
         | Injector.Pass -> ()
         | Injector.Transient_error ->
           emit_fault t ~write ~lba ~sectors "transient";
           req.Iorequest.error <- Some Errno.EIO;
           req.Iorequest.fault_retryable <- true
         | Injector.Hard_error ->
           emit_fault t ~write ~lba ~sectors "hard";
           req.Iorequest.error <- Some Errno.EIO
         | Injector.Stall d ->
           emit_fault t ~write ~lba ~sectors "stall";
           Sched.sleep t.sched d);
      let queue_empty () = Iosched.length t.policy = 0 in
      t.transport.execute ~queue_empty req;
      (* Defensive: transports complete requests themselves, but an early
         immediate-report path must not leave the request dangling. *)
      Iorequest.complete t.sched req;
      (match req.Iorequest.constituents with
      | [] ->
        Counter.record t.c_wait (Iorequest.wait_time req);
        Counter.record t.c_response (Iorequest.response_time req)
      | cs ->
        List.iter
          (fun c ->
            Counter.record t.c_wait (Iorequest.wait_time c);
            Counter.record t.c_response (Iorequest.response_time c))
          cs)
  done

let create ?registry ?(name = "driver") ?policy ?(coalesce = false)
    ?(max_merge_sectors = 1024) ?(max_retries = 3) ?(retry_backoff = 0.002)
    ?timeout sched transport =
  let policy =
    match policy with
    | Some p -> p
    | None ->
      (* Flat 1-sector-per-cylinder geometry: C-LOOK then degrades to
         sorting by sector number, which is the right default for
         transports without real geometry. *)
      Iosched.clook
        (Geometry.v ~cylinders:transport.total_sectors ~heads:1
           ~sectors_per_track:1 ~sector_bytes:transport.sector_bytes ())
  in
  let ( c_wait,
        c_response,
        c_queue_len,
        c_retries,
        c_errors,
        c_merged,
        c_merge_span,
        c_blit,
        c_copied ) =
    match registry with
    | Some r ->
      List.iter
        (fun s -> Stats.Registry.register r (Stats.Stat.scalar (name ^ "." ^ s)))
        [
          "wait"; "response"; "retries"; "io_errors"; "merged"; "merge_span";
          "blit_count"; "copied_bytes";
        ];
      (* the paper's "histograms of disk queue sizes" plug-in *)
      Stats.Registry.register r
        (Stats.Stat.with_histogram (name ^ ".queue_len")
           (Stats.Histogram.linear ~lo:0. ~hi:64. ~buckets:32));
      let c s = Stats.Registry.counter r (name ^ "." ^ s) in
      ( c "wait",
        c "response",
        c "queue_len",
        c "retries",
        c "io_errors",
        c "merged",
        c "merge_span",
        c "blit_count",
        c "copied_bytes" )
    | None -> Counter.(null, null, null, null, null, null, null, null, null)
  in
  let injector = Sched.injector sched in
  if Injector.enabled injector then
    Injector.register_disk injector ~name:transport.t_name
      ~total_sectors:transport.total_sectors;
  let t =
    {
      drv_name = name;
      sched;
      transport;
      policy;
      work = Sched.new_event ~name:(name ^ ".work") sched;
      in_service = false;
      idle_ev = Sched.new_event ~name:(name ^ ".idle") sched;
      injector;
      coalesce;
      max_merge_sectors;
      max_retries;
      retry_backoff;
      timeout;
      n_retries = 0;
      n_timeouts = 0;
      n_errors = 0;
      n_merges = 0;
      c_wait;
      c_response;
      c_queue_len;
      c_retries;
      c_errors;
      c_merged;
      c_merge_span;
      c_blit;
      c_copied;
    }
  in
  ignore (Sched.spawn sched ~name:(name ^ ".service") ~daemon:true (service_loop t));
  t

let name t = t.drv_name
let sector_bytes t = t.transport.sector_bytes
let total_sectors t = t.transport.total_sectors

let submit t req =
  Counter.record t.c_queue_len (float_of_int (Iosched.length t.policy));
  let tr = Sched.tracer t.sched in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(Sched.now t.sched)
      (Ev.Disk_enqueue
         {
           disk = t.drv_name;
           lba = req.Iorequest.lba;
           sectors = req.Iorequest.sectors;
           write = req.Iorequest.op = Iorequest.Write;
         });
  Iosched.add t.policy req;
  Sched.signal t.sched t.work

(* {2 Blocking I/O with fault absorption}

   The fault decision is drawn in the service loop, once per physical
   (possibly merged) request; each attempt here submits, waits, and
   classifies the outcome left on the request. Transient errors and
   timeouts are absorbed by retrying with exponential backoff; hard
   errors (latent sectors, device-reported failures) escalate at once,
   as do transients that survive [max_retries] attempts. *)

let emit_retry t ~attempt ~delay =
  let tr = Sched.tracer t.sched in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(Sched.now t.sched)
      (Ev.Disk_retry { disk = t.drv_name; attempt; delay })

(* Outcome of one attempt: the completed request, or an error plus
   whether a retry could plausibly succeed. A device stall longer than
   [timeout] shows up here as the waiter giving up after its patience;
   the stalled request is orphaned and completes (harmlessly) whenever
   the device comes back. *)
let attempt t op ?deadline ?data ~lba ~sectors () =
  let req = Iorequest.make t.sched op ~lba ~sectors ?deadline ?data () in
  submit t req;
  let completed =
    match t.timeout with
    | None ->
      Iorequest.await t.sched req;
      true
    | Some patience -> Iorequest.await_timeout t.sched req patience
  in
  if not completed then begin
    t.n_timeouts <- t.n_timeouts + 1;
    Error (Errno.ETIMEDOUT, `Retryable)
  end
  else
    match req.Iorequest.error with
    | Some e ->
      Error (e, if req.Iorequest.fault_retryable then `Retryable else `Hard)
    | None -> Ok req

let rec with_retries t op ?deadline ?data ~lba ~sectors ~tries () =
  match attempt t op ?deadline ?data ~lba ~sectors () with
  | Ok req -> Ok req
  | Error (_, `Retryable) when tries < t.max_retries ->
    let tries = tries + 1 in
    let delay = t.retry_backoff *. float_of_int (1 lsl (tries - 1)) in
    t.n_retries <- t.n_retries + 1;
    Counter.record t.c_retries 1.;
    emit_retry t ~attempt:tries ~delay;
    if delay > 0. then Sched.sleep t.sched delay;
    with_retries t op ?deadline ?data ~lba ~sectors ~tries ()
  | Error (e, _) ->
    t.n_errors <- t.n_errors + 1;
    Counter.record t.c_errors 1.;
    Error e

let read t ~lba ~sectors =
  match with_retries t Iorequest.Read ~lba ~sectors ~tries:0 () with
  | Error _ as e -> e
  | Ok req -> (
    match req.Iorequest.data with
    | Some d -> Ok d
    | None -> Ok (Data.sim (sectors * t.transport.sector_bytes)))

let write t ?deadline ~lba data =
  let len = Data.length data in
  if len = 0 || len mod t.transport.sector_bytes <> 0 then
    invalid_arg "Driver.write: payload not a whole number of sectors";
  let sectors = len / t.transport.sector_bytes in
  match
    with_retries t Iorequest.Write ?deadline ~data ~lba ~sectors ~tries:0 ()
  with
  | Ok _ -> Ok ()
  | Error _ as e -> e

let read_exn t ~lba ~sectors = Errno.ok_exn (read t ~lba ~sectors)
let write_exn t ?deadline ~lba data = Errno.ok_exn (write t ?deadline ~lba data)
let retries t = t.n_retries
let timeouts t = t.n_timeouts
let io_errors t = t.n_errors
let merges t = t.n_merges

let drain t =
  while Iosched.length t.policy > 0 || t.in_service do
    Sched.await t.sched t.idle_ev
  done
