module Sched = Capfs_sched.Sched
module Stats = Capfs_stats
module Counter = Capfs_stats.Counter
module Tracer = Capfs_obs.Tracer
module Ev = Capfs_obs.Event

type t = {
  dname : string;
  sched : Sched.t;
  model : Disk_model.t;
  bus : Bus.t;
  c_seek : Counter.t;
  c_transfer : Counter.t;
  c_service : Counter.t;
  c_cache_hit : Counter.t;
  c_rotation : Counter.t;
  (* mechanical state *)
  mutable head_cyl : int;
  mutable head : int;
  (* read cache window: LBA-contiguous [cache_start, cache_start+cache_len) *)
  mutable cache_start : int;
  mutable cache_len : int;
  (* optional real sector store: lba -> sector bytes *)
  store : (int, bytes) Hashtbl.t option;
}

let create ?registry ?(name = "disk") ?(backing = false) sched model bus =
  let c_seek, c_transfer, c_service, c_cache_hit, c_rotation =
    match registry with
    | Some r ->
      List.iter
        (fun s -> Stats.Registry.register r (Stats.Stat.scalar (name ^ "." ^ s)))
        [ "seek"; "transfer"; "service"; "cache_hit" ];
      (* the paper's "disk rotational delay statistics" plug-in: a
         histogram over one revolution *)
      Stats.Registry.register r
        (Stats.Stat.with_histogram (name ^ ".rotation")
           (Stats.Histogram.linear ~lo:0. ~hi:(60. /. model.Disk_model.rpm)
              ~buckets:30));
      let c s = Stats.Registry.counter r (name ^ "." ^ s) in
      (c "seek", c "transfer", c "service", c "cache_hit", c "rotation")
    | None ->
      Counter.(null, null, null, null, null)
  in
  {
    dname = name;
    sched;
    model;
    bus;
    c_seek;
    c_transfer;
    c_service;
    c_cache_hit;
    c_rotation;
    head_cyl = 0;
    head = 0;
    cache_start = 0;
    cache_len = 0;
    store = (if backing then Some (Hashtbl.create 4096) else None);
  }

let name t = t.dname
let model t = t.model
let capacity_sectors t = Geometry.capacity_sectors t.model.Disk_model.geometry
let current_cylinder t = t.head_cyl

let geometry t = t.model.Disk_model.geometry
let sector_bytes t = (geometry t).Geometry.sector_bytes
let spt t = (geometry t).Geometry.sectors_per_track
let sector_time t = Disk_model.sector_time t.model

(* Angular position of the platter in sector units, as a pure function of
   simulated time: the platter never stops spinning. *)
let angle_now t =
  let rot = Disk_model.rotation_time t.model in
  let phase = Float.rem (Sched.now t.sched) rot in
  phase /. sector_time t

(* Seconds until the start of sector slot [target] passes under the head. *)
let rotational_delay t ~target =
  let a = angle_now t in
  let d = Float.rem (float_of_int target -. a +. float_of_int (spt t))
            (float_of_int (spt t)) in
  d *. sector_time t

let in_cache t ~lba ~sectors =
  t.cache_len > 0 && lba >= t.cache_start
  && lba + sectors <= t.cache_start + t.cache_len

let cache_capacity_sectors t =
  t.model.Disk_model.cache.Disk_model.cache_bytes / sector_bytes t

let set_cache_window t ~start ~len =
  let cap = cache_capacity_sectors t in
  if cap <= 0 then begin
    t.cache_start <- 0;
    t.cache_len <- 0
  end
  else if len <= cap then begin
    t.cache_start <- start;
    t.cache_len <- len
  end
  else begin
    (* keep the tail: the most recently transferred sectors *)
    t.cache_start <- start + len - cap;
    t.cache_len <- cap
  end

let invalidate_cache_overlap t ~lba ~sectors =
  if t.cache_len > 0 then begin
    let cs = t.cache_start and ce = t.cache_start + t.cache_len in
    let rs = lba and re_ = lba + sectors in
    if rs < ce && re_ > cs then begin
      t.cache_start <- 0;
      t.cache_len <- 0
    end
  end

(* Move the arm/heads to [pos] and wait for its sector slot; records
   the component times into the seek/rotation stats. Seek and head
   switch overlap
   (the arm moves while the head multiplexer settles). *)
let position t (pos : Geometry.pos) =
  let seek_t =
    if pos.Geometry.cylinder = t.head_cyl then 0.
    else
      Seek.time t.model.Disk_model.seek
        ~distance:(abs (pos.Geometry.cylinder - t.head_cyl))
  in
  let switch_t =
    if pos.Geometry.head = t.head then 0. else t.model.Disk_model.head_switch
  in
  let positioning = Stdlib.max seek_t switch_t in
  if positioning > 0. then Sched.sleep t.sched positioning;
  t.head_cyl <- pos.Geometry.cylinder;
  t.head <- pos.Geometry.head;
  Counter.record t.c_seek positioning;
  let rot = rotational_delay t ~target:pos.Geometry.angle in
  if rot > 0. then Sched.sleep t.sched rot;
  Counter.record t.c_rotation rot;
  let dur = positioning +. rot in
  if dur > 0. then begin
    let tr = Sched.tracer t.sched in
    if Tracer.enabled tr then
      Tracer.emit tr ~time:(Sched.now t.sched)
        (Ev.Disk_seek
           { disk = t.dname; cylinder = pos.Geometry.cylinder; dur })
  end

(* Media transfer of a whole request, chunked per track. *)
let mechanical t ~lba ~sectors =
  let g = geometry t in
  let spt = g.Geometry.sectors_per_track in
  let xfer_total = ref 0. in
  let rec go lba remaining =
    if remaining > 0 then begin
      let offset_in_track = lba mod spt in
      let chunk = Stdlib.min remaining (spt - offset_in_track) in
      position t (Geometry.pos_of_lba g lba);
      let xfer = float_of_int chunk *. sector_time t in
      Sched.sleep t.sched xfer;
      xfer_total := !xfer_total +. xfer;
      go (lba + chunk) (remaining - chunk)
    end
  in
  go lba sectors;
  Counter.record t.c_transfer !xfer_total

(* Real-content plumbing for backed disks. *)

let store_write t ~lba (data : Data.t) =
  match t.store with
  | None -> ()
  | Some store ->
    let sb = sector_bytes t in
    let nsec = Data.length data / sb in
    for i = 0 to nsec - 1 do
      (* sector-sized subs of a block-aligned gather normalise to the
         underlying Real/Sim slice; a misaligned gather is flattened *)
      match Data.sub data ~pos:(i * sb) ~len:sb with
      | Data.Real b -> Hashtbl.replace store (lba + i) b
      | Data.Sim _ -> Hashtbl.remove store (lba + i)
      | Data.Gather _ as g ->
        Hashtbl.replace store (lba + i) (Bytes.of_string (Data.to_string g))
    done

let store_read t ~lba ~sectors =
  match t.store with
  | None -> Data.sim (sectors * sector_bytes t)
  | Some store ->
    let sb = sector_bytes t in
    let out = Bytes.make (sectors * sb) '\000' in
    for i = 0 to sectors - 1 do
      match Hashtbl.find_opt store (lba + i) with
      | Some b -> Bytes.blit b 0 out (i * sb) sb
      | None -> ()
    done;
    Data.Real out

let store_snapshot t =
  match t.store with
  | None -> None
  | Some store ->
    let out = Array.make (Hashtbl.length store) (0, Bytes.empty) in
    let i = ref 0 in
    Hashtbl.iter
      (fun lba b ->
        out.(!i) <- (lba, Bytes.copy b);
        incr i)
      store;
    (* stable order, so a snapshot is comparable across runs *)
    Array.sort (fun (a, _) (b, _) -> compare a b) out;
    Some out

let store_restore t sectors =
  match t.store with
  | None -> invalid_arg "Sim_disk.store_restore: disk has no backing store"
  | Some store ->
    Hashtbl.reset store;
    Array.iter (fun (lba, b) -> Hashtbl.replace store lba (Bytes.copy b)) sectors

let read_ahead t ~lba ~sectors ~queue_empty =
  let ra = t.model.Disk_model.cache.Disk_model.read_ahead_bytes in
  if ra > 0 && queue_empty () then begin
    let extra =
      Stdlib.min (ra / sector_bytes t) (capacity_sectors t - (lba + sectors))
    in
    if extra > 0 then begin
      (* The platter keeps turning under the head; the extra sectors cost
         media time but no new positioning. *)
      Sched.sleep t.sched (float_of_int extra *. sector_time t);
      set_cache_window t ~start:lba ~len:(sectors + extra)
    end
    else set_cache_window t ~start:lba ~len:sectors
  end
  else set_cache_window t ~start:lba ~len:sectors

let check_bounds t (req : Iorequest.t) =
  if Iorequest.last_lba req > capacity_sectors t then
    invalid_arg
      (Printf.sprintf "%s: request [%d, %d) beyond capacity %d" t.dname
         req.Iorequest.lba (Iorequest.last_lba req) (capacity_sectors t))

let execute t ~queue_empty (req : Iorequest.t) =
  check_bounds t req;
  let start = Sched.now t.sched in
  req.Iorequest.started_at <- start;
  Sched.sleep t.sched t.model.Disk_model.controller_overhead;
  let bytes = req.Iorequest.sectors * sector_bytes t in
  (match req.Iorequest.op with
  | Iorequest.Read ->
    let hit = in_cache t ~lba:req.Iorequest.lba ~sectors:req.Iorequest.sectors in
    Counter.record t.c_cache_hit (if hit then 1. else 0.);
    if hit then begin
      (* the drive keeps prefetching while serving from its buffer, so a
         sequential stream of hits slides the window forward; the media
         time is hidden in the idle gaps between host requests *)
      if queue_empty () && t.cache_len > 0 then begin
        let window_end = t.cache_start + t.cache_len in
        let ra = t.model.Disk_model.cache.Disk_model.read_ahead_bytes in
        let extra =
          Stdlib.min (ra / sector_bytes t) (capacity_sectors t - window_end)
        in
        if extra > 0 then
          set_cache_window t ~start:t.cache_start ~len:(t.cache_len + extra)
      end
    end
    else begin
      mechanical t ~lba:req.Iorequest.lba ~sectors:req.Iorequest.sectors;
      read_ahead t ~lba:req.Iorequest.lba ~sectors:req.Iorequest.sectors
        ~queue_empty
    end;
    req.Iorequest.data <-
      Some (store_read t ~lba:req.Iorequest.lba ~sectors:req.Iorequest.sectors);
    Bus.transfer t.bus ~bytes;
    Iorequest.complete t.sched req
  | Iorequest.Write ->
    Bus.transfer t.bus ~bytes;
    invalidate_cache_overlap t ~lba:req.Iorequest.lba
      ~sectors:req.Iorequest.sectors;
    (match req.Iorequest.data with
    | Some d -> store_write t ~lba:req.Iorequest.lba d
    | None -> ());
    let immediate =
      t.model.Disk_model.cache.Disk_model.immediate_report
      && bytes <= t.model.Disk_model.cache.Disk_model.cache_bytes
    in
    if immediate then Iorequest.complete t.sched req;
    mechanical t ~lba:req.Iorequest.lba ~sectors:req.Iorequest.sectors;
    if not immediate then Iorequest.complete t.sched req);
  Counter.record t.c_service (Sched.now t.sched -. start);
  let tr = Sched.tracer t.sched in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(Sched.now t.sched)
      (Ev.Disk_service
         {
           disk = t.dname;
           lba = req.Iorequest.lba;
           sectors = req.Iorequest.sectors;
           write = req.Iorequest.op = Iorequest.Write;
           dur = Sched.now t.sched -. start;
         })
