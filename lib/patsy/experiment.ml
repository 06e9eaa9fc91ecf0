module Sched = Capfs_sched.Sched
module Stats = Capfs_stats
module Disk_model = Capfs_disk.Disk_model
module Bus = Capfs_disk.Bus
module Sim_disk = Capfs_disk.Sim_disk
module Driver = Capfs_disk.Driver
module Iosched = Capfs_disk.Iosched
module Geometry = Capfs_disk.Geometry
module Cache = Capfs_cache.Cache
module Replacement = Capfs_cache.Replacement
module Lfs = Capfs_layout.Lfs
module Multiplex = Capfs_layout.Multiplex
module Fsys = Capfs.Fsys
module Client = Capfs.Client

type policy = Write_delay | Ups | Nvram_whole | Nvram_partial

let policy_name = function
  | Write_delay -> "write-delay-30s"
  | Ups -> "ups"
  | Nvram_whole -> "nvram-whole-file"
  | Nvram_partial -> "nvram-partial"

let all_policies = [ Write_delay; Ups; Nvram_whole; Nvram_partial ]

type config = {
  policy : policy;
  cache_mb : int;
  nvram_mb : int;
  ndisks : int;
  nbuses : int;
  disk_model : Disk_model.t;
  iosched : string;
  replacement : string;
  mem_copy_rate : float;
  seg_blocks : int;
  cleaner : Lfs.cleaner_policy;
  async_flush : bool;
  coalesce : bool;
  flush_window : int;
  max_extent : int;
  request_overhead : float option;
  seed : int;
  trace_buffer : int;
  fault_plan : Capfs_fault.Plan.t option;
}

let default policy =
  {
    policy;
    cache_mb = 128;
    nvram_mb = 4;
    ndisks = 10;
    nbuses = 3;
    disk_model = Disk_model.hp97560;
    iosched = "clook";
    replacement = "lru";
    (* a Sun-4/280-era memcpy: buffer copies are not free *)
    mem_copy_rate = 20.0e6;
    seg_blocks = 128;
    cleaner = Lfs.Cost_benefit;
    async_flush = true;
    coalesce = true;
    flush_window = 4;
    max_extent = 64;
    request_overhead = None;
    seed = 1996;
    trace_buffer = 0;
    fault_plan = None;
  }

type outcome = {
  name : string;
  config : config;
  replay : Replay.result;
  registry : Stats.Registry.t;
  layout_stats : (string * float) list;
  blocks_flushed : int;
  writes_absorbed : int;
  cache_hit_rate : float;
  events : Capfs_obs.Event.t list;
}

let block_bytes = 4096

let cache_config_of cfg =
  let capacity_blocks = cfg.cache_mb * 1024 * 1024 / block_bytes in
  let nvram_blocks = cfg.nvram_mb * 1024 * 1024 / block_bytes in
  let base =
    {
      Cache.block_bytes;
      capacity_blocks;
      nvram_blocks = 0;
      trigger = Cache.Demand;
      scope = `Whole_file;
      async_flush = cfg.async_flush;
      mem_copy_rate = cfg.mem_copy_rate;
      coalesce = cfg.coalesce;
      flush_window = cfg.flush_window;
      max_extent_blocks = cfg.max_extent;
    }
  in
  match cfg.policy with
  | Write_delay ->
    {
      base with
      Cache.trigger = Cache.Periodic { max_age = 30.; scan_interval = 5. };
    }
  | Ups -> base
  | Nvram_whole -> { base with Cache.nvram_blocks }
  | Nvram_partial -> { base with Cache.nvram_blocks; scope = `Single_block }

let lfs_config_of cfg d =
  {
    Lfs.default_config with
    Lfs.seg_blocks = cfg.seg_blocks;
    cleaner = cfg.cleaner;
    first_ino = d + 1;
    ino_stride = cfg.ndisks;
  }

type farm = {
  f_client : Client.t;
  f_registry : Stats.Registry.t;
  f_disks : Sim_disk.t array;
}

let build_farm ?(backing = false) sched cfg =
  if cfg.ndisks < 1 || cfg.nbuses < 1 then
    invalid_arg "Experiment: need at least one disk and one bus";
  let registry = Stats.Registry.create () in
  let disk_model =
    (* per-request fixed cost (command decode etc.) is an experiment
       knob; [None] keeps the model's own figure *)
    match cfg.request_overhead with
    | None -> cfg.disk_model
    | Some o -> { cfg.disk_model with Disk_model.controller_overhead = o }
  in
  let buses =
    Array.init cfg.nbuses (fun b ->
        Bus.scsi2 ~registry ~name:(Stats.Names.bus b) sched)
  in
  let disks =
    Array.init cfg.ndisks (fun d ->
        Sim_disk.create ~registry
          ~name:(Stats.Names.disk d)
          ~backing sched disk_model
          buses.(d mod cfg.nbuses))
  in
  let geometry = disk_model.Disk_model.geometry in
  let spb = block_bytes / geometry.Geometry.sector_bytes in
  let drivers =
    Array.init cfg.ndisks (fun d ->
        Driver.create ~registry
          ~name:(Stats.Names.driver d)
          ~policy:(Iosched.by_name geometry cfg.iosched)
          ~coalesce:cfg.coalesce
          ~max_merge_sectors:(cfg.max_extent * spb)
          sched
          (Driver.sim_transport disks.(d)))
  in
  let volumes =
    Array.init cfg.ndisks (fun d ->
        Lfs.format_and_mount ~registry
          ~name:(Stats.Names.lfs d)
          ~config:(lfs_config_of cfg d) sched drivers.(d) ~block_bytes)
  in
  let layout = Multiplex.layout volumes in
  let replacement =
    Replacement.by_name ~seed:cfg.seed
      ~capacity:(cfg.cache_mb * 1024 * 1024 / block_bytes)
      cfg.replacement
  in
  let fs =
    Fsys.create ~registry ~replacement ~cache_config:(cache_config_of cfg)
      ~layout sched
  in
  { f_client = Client.create fs; f_registry = registry; f_disks = disks }

let build_instance sched cfg =
  let f = build_farm sched cfg in
  (f.f_client, f.f_registry)

let injector_of cfg =
  match cfg.fault_plan with
  | Some plan -> Capfs_fault.Injector.create ~seed:cfg.seed plan
  | None -> Capfs_fault.Injector.null

let stat_count registry name =
  match Stats.Registry.find registry name with
  | Some st -> Stats.Stat.count st
  | None -> 0

let snapshot outcome =
  Stats.Snapshot.capture ~filter:Stats.Snapshot.policy_visible
    outcome.registry

let run cfg ~trace =
  let tracer =
    if cfg.trace_buffer > 0 then
      Capfs_obs.Tracer.create ~capacity:cfg.trace_buffer ()
    else Capfs_obs.Tracer.null
  in
  let sched =
    Sched.create ~seed:cfg.seed ~clock:`Virtual ~tracer
      ~injector:(injector_of cfg) ()
  in
  let out = ref None in
  ignore
    (Sched.spawn sched ~name:"experiment" (fun () ->
         let client, registry = build_instance sched cfg in
         let replay = Replay.run client trace in
         (* drain outstanding writes so flush counters are complete; a
            fault plan can legitimately fail this final sync — the
            replay's own error counters already tell that story *)
         (match Client.sync client with Ok () | Error _ -> ());
         let fs = Client.fsys client in
         let hits = stat_count registry "cache.hits" in
         let misses = stat_count registry "cache.misses" in
         let hit_rate =
           if hits + misses = 0 then 0.
           else float_of_int hits /. float_of_int (hits + misses)
         in
         out :=
           Some
             {
               name = policy_name cfg.policy;
               config = cfg;
               replay;
               registry;
               layout_stats = fs.Fsys.layout.Capfs_layout.Layout.layout_stats ();
               blocks_flushed = stat_count registry "cache.flushed_blocks";
               writes_absorbed = stat_count registry "cache.absorbed_writes";
               cache_hit_rate = hit_rate;
               events = Capfs_obs.Tracer.events tracer;
             }));
  Sched.run sched;
  match !out with
  | Some o -> o
  | None -> failwith "Experiment.run: simulation produced no outcome"
