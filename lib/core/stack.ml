module Sched = Capfs_sched.Sched
module Errno = Capfs_core.Errno
module Names = Capfs_stats.Names
module Driver = Capfs_disk.Driver
module Cache = Capfs_cache.Cache
module Lfs = Capfs_layout.Lfs

type config = {
  cache : Cache.config;
  lfs : Lfs.config;
  iosched : string;
  replacement : string;
  seed : int;
}

type t = {
  sched : Sched.t;
  registry : Capfs_stats.Registry.t option;
  config : config;
  drivers : Driver.t array;
}

let create ?registry ?geometry sched config transports =
  let cache = config.cache in
  let driver i (transport : Driver.transport) =
    let geometry =
      match geometry with
      | Some g -> g
      | None ->
        Capfs_disk.Geometry.v ~cylinders:transport.total_sectors ~heads:1
          ~sectors_per_track:1 ~sector_bytes:transport.sector_bytes ()
    in
    let spb = cache.Cache.block_bytes / transport.sector_bytes in
    Driver.create ?registry ~name:(Names.driver i)
      ~policy:(Capfs_disk.Iosched.by_name geometry config.iosched)
      ~coalesce:cache.Cache.coalesce
      ~max_merge_sectors:(cache.Cache.max_extent_blocks * spb)
      sched transport
  in
  { sched; registry; config; drivers = Array.mapi driver transports }

type mount =
  | Format
  | Mount_or_format of (string -> bool)
  | Recover of (string -> (Lfs.recovery_report, Errno.t) result -> unit)

let mount t mode =
  let { sched; registry; config; drivers } = t in
  let cache = config.cache in
  let block_bytes = cache.Cache.block_bytes in
  let volume i driver =
    let name = Names.lfs i in
    let config =
      { config.lfs with Lfs.first_ino = i + 1; ino_stride = Array.length drivers }
    in
    let format () =
      Lfs.format_and_mount ?registry ~name ~config sched driver ~block_bytes
    in
    match mode with
    | Format -> Ok (format ())
    | Mount_or_format may_format -> (
      try Ok (Lfs.mount ?registry ~name ~config sched driver)
      with Capfs_layout.Codec.Corrupt reason ->
        if may_format reason then Ok (format ()) else Error Errno.EIO)
    | Recover report ->
      let r = Lfs.recover ?registry ~name ~config sched driver in
      report name (Result.map snd r);
      Result.map fst r
  in
  let volumes = Array.map Errno.ok_exn (Array.mapi volume drivers) in
  let layout = Capfs_layout.Multiplex.layout volumes in
  let replacement =
    Capfs_cache.Replacement.by_name ~seed:config.seed
      ~capacity:cache.Cache.capacity_blocks config.replacement
  in
  Client.create
    (Fsys.create ?registry ~replacement ~cache_config:cache ~layout sched)
