module Sched = Capfs_sched.Sched
module Stats = Capfs_stats
module Snapshot = Capfs_stats.Snapshot
module Names = Capfs_stats.Names
module Driver = Capfs_disk.Driver
module Iosched = Capfs_disk.Iosched
module Geometry = Capfs_disk.Geometry
module Sim_disk = Capfs_disk.Sim_disk
module Bus = Capfs_disk.Bus
module Lfs = Capfs_layout.Lfs
module Replacement = Capfs_cache.Replacement
module Fsys = Capfs.Fsys
module Client = Capfs.Client
module Errno = Capfs_core.Errno
module Plan = Capfs_fault.Plan
module Experiment = Capfs_patsy.Experiment
module Multiplex = Capfs_layout.Multiplex
module Replay = Capfs_patsy.Replay
module File_blockdev = Capfs_pfs.File_blockdev
module Pfs = Capfs_pfs.Pfs
module Cache = Capfs_cache.Cache

let src = Logs.Src.create "capfs.diffval" ~doc:"differential sim-vs-real validation"

module Log = (val Logs.src_log src : Logs.LOG)

(* {2 Tolerances} *)

type tolerance =
  | Exact
  | Within of { rel : float; abs : float }
  | Informational

(* Per-counter defaults, keyed by the counter suffix (the part after the
   instance name). The split mirrors the contract in VALIDATION.md:

   - {e policy counters} — event counts that depend only on the trace
     and the shared policy code — are gated tightly;
   - {e fault-machinery counters} depend on where the injector's PRNG
     draws land in each engine's (different) request stream, so they are
     gated loosely: both halves must degrade to the same order;
   - {e timing counters} (waits, stalls, queue depths, gauges sampled on
     a timer) measure the engine, not the policy: virtual seconds and
     wall-clock seconds are incommensurable, so they are reported but
     never gated. *)
let default_tolerances =
  [
    (* cache: policy-visible event counts *)
    ("hits", Within { rel = 0.05; abs = 24. });
    ("misses", Within { rel = 0.05; abs = 24. });
    ("evictions", Within { rel = 0.05; abs = 8. });
    ("flushed_blocks", Within { rel = 0.05; abs = 8. });
    ("absorbed_writes", Within { rel = 0.05; abs = 8. });
    ("overwrites", Within { rel = 0.05; abs = 8. });
    (* layout: policy-visible event counts *)
    ("segment_sealed", Within { rel = 0.05; abs = 4. });
    ("checkpoint", Within { rel = 0.; abs = 2. });
    ("alloc", Within { rel = 0.05; abs = 8. });
    ("commits", Within { rel = 0.05; abs = 8. });
    ("guesses", Within { rel = 0.05; abs = 8. });
    (* fault machinery: same order of degradation, not same placement *)
    ("retries", Within { rel = 0.75; abs = 64. });
    ("io_errors", Within { rel = 0.75; abs = 64. });
    (* timing / engine-dependent: reported, never gated *)
    ("wait", Informational);
    ("response", Informational);
    ("queue_len", Informational);
    ("read_stall", Informational);
    ("write_stall", Informational);
    ("dirty_blocks", Informational);
    ("nvram_used", Informational);
    ("free_segments", Informational);
    ("merged", Informational);
    ("merge_span", Informational);
    (* zero-copy accounting: where payload bytes are physically copied
       is an engine property (the PFS half blits at the real device
       boundary, the sim half charges the cache-adopt copy), never a
       policy outcome *)
    ("blit_count", Informational);
    ("copied_bytes", Informational);
  ]

(* a counter nobody declared: gate it, but leave slack — new stats
   should be triaged into the table above (the CI lint insists) *)
let fallback_tolerance = Within { rel = 0.25; abs = 16. }

let suffix key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let pass tol a b =
  match tol with
  | Exact -> a = b
  | Informational -> true
  | Within { rel; abs } ->
    let a = float_of_int a and b = float_of_int b in
    let d = Float.abs (a -. b) in
    d <= Float.max abs (rel *. Float.max (Float.abs a) (Float.abs b))

let tolerance_to_string = function
  | Exact -> "exact"
  | Informational -> "informational"
  | Within { rel; abs } -> Printf.sprintf "rel=%g,abs=%g" rel abs

(* {2 Report types} *)

type verdict = {
  v_key : string;
  v_patsy : int;
  v_pfs : int;
  v_tolerance : tolerance;
  v_ok : bool;
}

type side = {
  s_clock : string;
  s_operations : int;
  s_errors : int;
  s_skipped : int;
  s_elapsed : float;
  s_fsck_errors : string list;
  s_recovered_inodes : int;
  s_snapshot : Snapshot.t;
}

type report = {
  r_trace : string;
  r_policy : string;
  r_plan : string;
  r_speedup : float;
  r_skewed : bool;
  r_patsy : side;
  r_pfs : side;
  r_only_patsy : string list;
  r_only_pfs : string list;
  r_verdicts : verdict list;
  r_ok : bool;
}

type config = {
  base : Experiment.config;
  image_mb : int;
  speedup : float;
  pfs_clock : Sched.clock;
  tolerances : (string * tolerance) list;
}

let default ?(policy = Experiment.Nvram_partial) () =
  {
    base =
      {
        (Experiment.default policy) with
        (* one disk, one bus: PFS runs on a single backing file, so the
           comparable simulator farm is the single-spindle one *)
        Experiment.ndisks = 1;
        nbuses = 1;
        (* memcpy simulation charges virtual seconds in Patsy but would
           charge real seconds in PFS; keep copies free on both halves *)
        mem_copy_rate = 0.;
      };
    image_mb = 128;
    speedup = 100_000.;
    pfs_clock = `Real;
    tolerances = [];
  }

let plan_of base =
  match base.Experiment.fault_plan with
  | None -> Plan.empty
  | Some p ->
    (* a crash mid-replay is Crash.run's job; diffval compares two
       complete runs *)
    { p with Plan.crash_at = None }

let sanitize base = { base with Experiment.fault_plan =
    (let p = plan_of base in if Plan.is_empty p then None else Some p) }

(* {2 The Patsy half: virtual time, simulated disk} *)

let run_patsy ~speedup base source =
  let sched =
    Sched.create ~seed:base.Experiment.seed ~clock:`Virtual
      ~injector:(Experiment.injector_of base) ()
  in
  let out = ref None in
  ignore
    (Sched.spawn sched ~name:"diffval.patsy" (fun () ->
         (* backing stores: the Patsy half must leave real bytes behind
            so its volume can be remounted and fsck'd like PFS's image *)
         let farm = Experiment.build_farm ~backing:true sched base in
         let replay =
           Replay.run ~speedup ~serial:true ~real_data:true
             farm.Experiment.f_client source
         in
         (* equivalent sync point: drain all outstanding writes before
            the snapshot, so flush counters are complete on both halves *)
         (match Client.sync farm.Experiment.f_client with
         | Ok () | (exception Errno.Error _) -> ()
         | Error _ -> ());
         let snap =
           Snapshot.capture ~filter:Snapshot.policy_visible
             farm.Experiment.f_registry
         in
         out := Some (farm, replay, snap)));
  Sched.run sched;
  match !out with
  | None -> Error Errno.EIO
  | Some (farm, replay, snap) ->
    (* crash-free close check: the surviving bytes must recover to a
       clean fsck on a fresh scheduler, mirroring a server restart *)
    let stores =
      Array.map
        (fun d ->
          match Sim_disk.store_snapshot d with Some s -> s | None -> [||])
        farm.Experiment.f_disks
    in
    let sched2 = Sched.create ~seed:base.Experiment.seed ~clock:`Virtual () in
    let r2 = Stats.Registry.create () in
    let bus = Bus.scsi2 ~registry:r2 ~name:(Names.bus 0) sched2 in
    let fsck = ref [ "recovery did not run" ] and inodes = ref 0 in
    let disk =
      Sim_disk.create ~registry:r2 ~name:(Names.disk 0) ~backing:true sched2
        base.Experiment.disk_model bus
    in
    Sim_disk.store_restore disk stores.(0);
    let driver =
      Driver.create ~registry:r2 ~name:(Names.driver 0)
        ~policy:
          (Iosched.by_name base.Experiment.disk_model.Capfs_disk.Disk_model.geometry
             base.Experiment.iosched)
        sched2 (Driver.sim_transport disk)
    in
    ignore
      (Sched.spawn sched2 ~name:"diffval.patsy.fsck" (fun () ->
           match
             Lfs.recover ~registry:r2 ~name:(Names.lfs 0)
               ~config:(Experiment.lfs_config_of base 0) sched2 driver
           with
           | Ok (_, rep) ->
             fsck := rep.Lfs.r_fsck_errors;
             inodes := rep.Lfs.r_recovered_inodes
           | Error e -> fsck := [ "recovery failed: " ^ Errno.to_string e ]));
    Sched.run sched2;
    Ok
      {
        s_clock = "virtual";
        s_operations = replay.Replay.operations;
        s_errors = replay.Replay.errors;
        s_skipped = replay.Replay.skipped_ops;
        s_elapsed = replay.Replay.elapsed;
        s_fsck_errors = !fsck;
        s_recovered_inodes = !inodes;
        s_snapshot = snap;
      }

(* {2 The PFS half: real clock, real backing file}

   Since the [Pfs.Config] redesign this half goes through [Pfs.create]
   itself — the very constructor the production server and every test
   use — instead of hand-assembling a lookalike stack. What diffval
   certifies is therefore the deployed construction path, not a
   parallel copy of it. *)

(* Translate an experiment config into the [Pfs.Config] of the
   equivalent single-volume server. The cache knobs go through
   [Experiment.cache_config_of] so policy → trigger/scope/nvram mapping
   stays in one place. *)
let pfs_config_of ~image ~image_mb ~clock base =
  let cc = Experiment.cache_config_of base in
  let block = Experiment.block_bytes in
  Pfs.Config.make ~image ~size_mb:image_mb
    ~cache_mb:(cc.Cache.capacity_blocks * block / (1024 * 1024))
    ~nvram_mb:(cc.Cache.nvram_blocks * block / (1024 * 1024))
    ~trigger:cc.Cache.trigger ~scope:cc.Cache.scope
    ~iosched:base.Experiment.iosched
    ~replacement:base.Experiment.replacement
    ~seg_blocks:base.Experiment.seg_blocks ~cleaner:base.Experiment.cleaner
    ~async_flush:cc.Cache.async_flush
    ~mem_copy_rate:cc.Cache.mem_copy_rate
    ~coalesce:cc.Cache.coalesce
    ~flush_window:cc.Cache.flush_window
    ~max_extent:cc.Cache.max_extent_blocks ~clock
    ~seed:base.Experiment.seed ()

(* The differential harness must never mistake "no data" for "no
   drift": a volume that yields no snapshot is a harness error
   ([EINVAL], exit 2 in the patsy CLI), not silent equivalence. *)
let volume_snapshot t =
  match Pfs.snapshot t with
  | Some snap -> Ok snap
  | None ->
    Log.err (fun m ->
        m "PFS volume has no statistics registry — harness bug, not \
           equivalence");
    Error Errno.EINVAL

let run_pfs ~speedup ~image_mb ~clock base source =
  let image = Filename.temp_file "capfs_diffval" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      let size_bytes = image_mb * 1024 * 1024 in
      let registry = Stats.Registry.create () in
      let cfg = pfs_config_of ~image ~image_mb ~clock base in
      match
        Pfs.create ~registry ~injector:(Experiment.injector_of base) cfg
      with
      | Error _ as e -> e
      | Ok t -> (
        let out = ref None in
        ignore
          (Sched.spawn t.Pfs.sched ~name:"diffval.pfs" (fun () ->
               out :=
                 Some
                   (Replay.run ~speedup ~serial:true ~real_data:true
                      t.Pfs.client source)));
        Sched.run t.Pfs.sched;
        (* equivalent sync point: [Pfs.shutdown] syncs and closes, so
           flush counters are complete before the capture *)
        Pfs.shutdown t;
        match (!out, volume_snapshot t) with
        | None, _ -> Error Errno.EIO
        | _, (Error _ as e) -> e
        | Some replay, Ok snap ->
          (* crash-free close check: reopen the image cold and fsck it,
             exactly what a PFS restart does *)
          let sched2 = Sched.create ~clock:`Virtual () in
          let tr2 =
            File_blockdev.transport sched2 ~path:image ~size_bytes ()
          in
          let flat =
            Geometry.v ~cylinders:tr2.Driver.total_sectors ~heads:1
              ~sectors_per_track:1 ~sector_bytes:tr2.Driver.sector_bytes ()
          in
          let drv2 =
            Driver.create ~name:(Names.driver 0)
              ~policy:(Iosched.by_name flat base.Experiment.iosched)
              sched2 tr2
          in
          let fsck = ref [ "recovery did not run" ] and inodes = ref 0 in
          ignore
            (Sched.spawn sched2 ~name:"diffval.pfs.fsck" (fun () ->
                 match Lfs.recover ~name:(Names.lfs 0) sched2 drv2 with
                 | Ok (_, rep) ->
                   fsck := rep.Lfs.r_fsck_errors;
                   inodes := rep.Lfs.r_recovered_inodes
                 | Error e ->
                   fsck := [ "recovery failed: " ^ Errno.to_string e ]));
          Sched.run sched2;
          File_blockdev.close tr2;
          Ok
            {
              s_clock =
                (match clock with `Real -> "real" | `Virtual -> "virtual");
              s_operations = replay.Replay.operations;
              s_errors = replay.Replay.errors;
              s_skipped = replay.Replay.skipped_ops;
              s_elapsed = replay.Replay.elapsed;
              s_fsck_errors = !fsck;
              s_recovered_inodes = !inodes;
              s_snapshot = snap;
            }))

(* {2 The diff} *)

let tolerance_for tolerances key =
  let s = suffix key in
  match List.assoc_opt s tolerances with
  | Some t -> t
  | None -> (
    match List.assoc_opt s default_tolerances with
    | Some t -> t
    | None -> fallback_tolerance)

let diff_snapshots ?(tolerances = []) ~patsy ~pfs () =
  let patsy_keys = Snapshot.keys patsy and pfs_keys = Snapshot.keys pfs in
  let only_patsy =
    List.filter (fun k -> Snapshot.find pfs k = None) patsy_keys
  in
  let only_pfs =
    List.filter (fun k -> Snapshot.find patsy k = None) pfs_keys
  in
  let verdicts =
    List.filter_map
      (fun key ->
        match Snapshot.find pfs key with
        | None -> None
        | Some b ->
          let a =
            match Snapshot.find patsy key with
            | Some a -> a
            | None -> assert false
          in
          let tol = tolerance_for tolerances key in
          Some
            {
              v_key = key;
              v_patsy = a.Snapshot.e_count;
              v_pfs = b.Snapshot.e_count;
              v_tolerance = tol;
              v_ok = pass tol a.Snapshot.e_count b.Snapshot.e_count;
            })
      patsy_keys
  in
  (verdicts, only_patsy, only_pfs)

let replay_verdicts ~(patsy : side) ~(pfs : side) =
  [
    {
      v_key = "replay.operations";
      v_patsy = patsy.s_operations;
      v_pfs = pfs.s_operations;
      v_tolerance = Exact;
      v_ok = patsy.s_operations = pfs.s_operations;
    };
    {
      v_key = "replay.errors";
      v_patsy = patsy.s_errors;
      v_pfs = pfs.s_errors;
      v_tolerance = Within { rel = 0.75; abs = 16. };
      v_ok =
        pass (Within { rel = 0.75; abs = 16. }) patsy.s_errors pfs.s_errors;
    };
    {
      v_key = "replay.skipped_ops";
      v_patsy = patsy.s_skipped;
      v_pfs = pfs.s_skipped;
      v_tolerance = Within { rel = 0.; abs = 4. };
      v_ok = pass (Within { rel = 0.; abs = 4. }) patsy.s_skipped pfs.s_skipped;
    };
  ]

let verdicts_ok verdicts = List.for_all (fun v -> v.v_ok) verdicts

(* {2 The harness} *)

let run ?config ?skew ~trace_name source =
  let cfg = match config with Some c -> c | None -> default () in
  let base = sanitize cfg.base in
  let pfs_base =
    match skew with None -> base | Some f -> sanitize (f base)
  in
  if Capfs_trace.Source.length source = 0 then Error Errno.EINVAL
  else
    match
      ( run_patsy ~speedup:cfg.speedup base source,
        run_pfs ~speedup:cfg.speedup ~image_mb:cfg.image_mb
          ~clock:cfg.pfs_clock pfs_base source )
    with
    | Error e, _ | _, Error e -> Error e
    | Ok patsy, Ok pfs ->
      let verdicts, only_patsy, only_pfs =
        diff_snapshots ~tolerances:cfg.tolerances ~patsy:patsy.s_snapshot
          ~pfs:pfs.s_snapshot ()
      in
      let verdicts = replay_verdicts ~patsy ~pfs @ verdicts in
      let fsck_clean = patsy.s_fsck_errors = [] && pfs.s_fsck_errors = [] in
      let ok =
        verdicts_ok verdicts && only_patsy = [] && only_pfs = []
        && fsck_clean
      in
      Log.info (fun m ->
          m "diffval %s: %d counters compared, %d drifted key(s), ok=%b"
            trace_name (List.length verdicts)
            (List.length only_patsy + List.length only_pfs)
            ok);
      Ok
        {
          r_trace = trace_name;
          r_policy = Experiment.policy_name base.Experiment.policy;
          r_plan = Plan.to_string (plan_of base);
          r_speedup = cfg.speedup;
          r_skewed = skew <> None;
          r_patsy = patsy;
          r_pfs = pfs;
          r_only_patsy = only_patsy;
          r_only_pfs = only_pfs;
          r_verdicts = verdicts;
          r_ok = ok;
        }

(* {2 Rendering} *)

let add_string_list b l =
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Stats.Json.quote s))
    l;
  Buffer.add_char b ']'

let add_side b (s : side) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"clock\":\"%s\",\"operations\":%d,\"errors\":%d,\"skipped_ops\":%d,\"elapsed_s\":%.6g,\"recovered_inodes\":%d,\"fsck_errors\":"
       s.s_clock s.s_operations s.s_errors s.s_skipped s.s_elapsed
       s.s_recovered_inodes);
  add_string_list b s.s_fsck_errors;
  Buffer.add_string b ",\"snapshot\":";
  Snapshot.add_json b s.s_snapshot;
  Buffer.add_char b '}'

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"trace\":\"%s\",\"policy\":\"%s\",\"fault_plan\":\"%s\",\"speedup\":%g,\"skewed\":%b,\"ok\":%b,"
       (Stats.Json.escape r.r_trace) (Stats.Json.escape r.r_policy)
       (Stats.Json.escape r.r_plan) r.r_speedup r.r_skewed r.r_ok);
  Buffer.add_string b "\"patsy\":";
  add_side b r.r_patsy;
  Buffer.add_string b ",\"pfs\":";
  add_side b r.r_pfs;
  Buffer.add_string b ",\"only_in_patsy\":";
  add_string_list b r.r_only_patsy;
  Buffer.add_string b ",\"only_in_pfs\":";
  add_string_list b r.r_only_pfs;
  Buffer.add_string b ",\"verdicts\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"key\":\"%s\",\"patsy\":%d,\"pfs\":%d,\"tolerance\":\"%s\",\"ok\":%b}"
           (Stats.Json.escape v.v_key) v.v_patsy v.v_pfs
           (tolerance_to_string v.v_tolerance)
           v.v_ok))
    r.r_verdicts;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf
    "# diffval: trace=%s policy=%s plan=%s speedup=%g@."
    r.r_trace r.r_policy
    (if r.r_plan = "" then "(empty)" else r.r_plan)
    r.r_speedup;
  Format.fprintf ppf
    "# patsy: %d ops, %d errors, %d skipped, %.2f virtual s | pfs (%s): %d \
     ops, %d errors, %d skipped, %.2f s@."
    r.r_patsy.s_operations r.r_patsy.s_errors r.r_patsy.s_skipped
    r.r_patsy.s_elapsed r.r_pfs.s_clock r.r_pfs.s_operations
    r.r_pfs.s_errors r.r_pfs.s_skipped r.r_pfs.s_elapsed;
  List.iter
    (fun k -> Format.fprintf ppf "  KEY DRIFT: %s only in patsy@." k)
    r.r_only_patsy;
  List.iter
    (fun k -> Format.fprintf ppf "  KEY DRIFT: %s only in pfs@." k)
    r.r_only_pfs;
  List.iter
    (fun v ->
      let gated = v.v_tolerance <> Informational in
      if (not v.v_ok) || gated then
        Format.fprintf ppf "  %-28s patsy=%-8d pfs=%-8d [%s] %s@." v.v_key
          v.v_patsy v.v_pfs
          (tolerance_to_string v.v_tolerance)
          (if not gated then "·" else if v.v_ok then "ok" else "DRIFT")
      else
        Format.fprintf ppf "  %-28s patsy=%-8d pfs=%-8d [informational]@."
          v.v_key v.v_patsy v.v_pfs)
    r.r_verdicts;
  (match (r.r_patsy.s_fsck_errors, r.r_pfs.s_fsck_errors) with
  | [], [] -> Format.fprintf ppf "# fsck: both halves clean@."
  | pe, fe ->
    List.iter (fun e -> Format.fprintf ppf "  patsy fsck: %s@." e) pe;
    List.iter (fun e -> Format.fprintf ppf "  pfs fsck: %s@." e) fe);
  Format.fprintf ppf "# verdict: %s@."
    (if r.r_ok then "EQUIVALENT (within tolerance)" else "DRIFTED")
