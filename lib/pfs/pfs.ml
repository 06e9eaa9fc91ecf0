module Sched = Capfs_sched.Sched
module Cache = Capfs_cache.Cache
module Replacement = Capfs_cache.Replacement
module Driver = Capfs_disk.Driver
module Iosched = Capfs_disk.Iosched
module Geometry = Capfs_disk.Geometry
module Lfs = Capfs_layout.Lfs
module Codec = Capfs_layout.Codec
module Multiplex = Capfs_layout.Multiplex
module Errno = Capfs_core.Errno

let src = Logs.Src.create "capfs.pfs" ~doc:"on-line PFS instantiation"

module Log = (val Logs.src_log src : Logs.LOG)

let block_bytes = 4096

module Config = struct
  type t = {
    image : string;
    size_mb : int;
    cache_mb : int;
    nvram_mb : int;
    trigger : Cache.flush_trigger;
    scope : Cache.flush_scope;
    iosched : string;
    replacement : string;
    seg_blocks : int;
    cleaner : Lfs.cleaner_policy;
    async_flush : bool;
    mem_copy_rate : float;
    coalesce : bool;
    flush_window : int;
    max_extent : int;
    shards : int;
    admission : int;
    lease_s : float;
    clock : Sched.clock;
    seed : int;
  }

  let make ?(size_mb = 64) ?(cache_mb = 16) ?(nvram_mb = 0)
      ?(trigger = Cache.Periodic { max_age = 30.; scan_interval = 5. })
      ?(scope = `Whole_file) ?(iosched = "clook") ?(replacement = "lru")
      ?(seg_blocks = Lfs.default_config.Lfs.seg_blocks)
      ?(cleaner = Lfs.default_config.Lfs.cleaner) ?(async_flush = true)
      ?(mem_copy_rate = 0.) ?(coalesce = true) ?(flush_window = 4)
      ?(max_extent = 64) ?(shards = 1) ?(admission = 64)
      ?(lease_s = 5.0) ?(clock = `Real) ?(seed = 1996) ~image () =
    {
      image;
      size_mb;
      cache_mb;
      nvram_mb;
      trigger;
      scope;
      iosched;
      replacement;
      seg_blocks;
      cleaner;
      async_flush;
      mem_copy_rate;
      coalesce;
      flush_window;
      max_extent;
      shards;
      admission;
      lease_s;
      clock;
      seed;
    }

  let default = make ~image:"" ()

  let mb = 1024 * 1024

  let lfs_config t =
    { Lfs.default_config with Lfs.seg_blocks = t.seg_blocks; cleaner = t.cleaner }

  let validate t =
    let bad = ref [] in
    let check ok what = if not ok then bad := what :: !bad in
    check (t.image <> "") "image: empty path";
    check (t.size_mb >= 1) "size-mb < 1";
    check (t.cache_mb >= 1) "cache-mb < 1";
    check (t.nvram_mb >= 0) "nvram-mb < 0";
    check
      (match t.trigger with
      | Cache.Demand -> true
      | Cache.Periodic { max_age; scan_interval } ->
        max_age > 0. && scan_interval > 0.)
      "trigger: periodic ages must be positive";
    check
      (List.mem t.replacement Replacement.known_policies)
      ("replacement: unknown policy " ^ t.replacement);
    check
      (List.mem t.iosched Iosched.known_policies)
      ("iosched: unknown policy " ^ t.iosched);
    check (t.seg_blocks >= 8) "seg-blocks < 8";
    check (t.mem_copy_rate >= 0.) "mem-copy-rate < 0";
    check (t.flush_window >= 1) "flush-window < 1";
    check (t.max_extent >= 1) "max-extent < 1";
    check (t.shards >= 1) "shards < 1";
    check (t.admission >= 0) "admission < 0";
    check (t.lease_s > 0.) "lease-s <= 0";
    (* the volume must hold the LFS layout these knobs ask for: refuse
       here, not in the boot fibre that formats it *)
    (if t.seg_blocks >= 8 && t.size_mb >= 1 then
       let blocks = Lfs.min_blocks (lfs_config t) in
       let min_mb = ((blocks * block_bytes) + mb - 1) / mb in
       check (t.size_mb >= min_mb)
         (Printf.sprintf "size-mb %d: the volume needs at least %d MB \
                          (seg-blocks %d)"
            t.size_mb min_mb t.seg_blocks));
    match !bad with
    | [] -> Ok t
    | problems ->
      Log.err (fun m ->
          m "invalid configuration: %s" (String.concat "; " problems));
      Error Errno.EINVAL

  (* {2 Shared argument parsing}

     One [key=value] vocabulary for every front end: the pfs CLI's
     repeatable [--set], patsy's [--diff-skew], test fixtures, and the
     load generator all call [of_args], so a knob is parsed in exactly
     one place. *)

  let arg_doc =
    "KEY=VALUE with KEY one of: size-mb, cache-mb, nvram-mb, trigger \
     (demand | periodic:MAX_AGE:SCAN_INTERVAL), scope (whole-file | \
     single-block), iosched, replacement, seg-blocks, cleaner (greedy | \
     cost-benefit), async-flush, mem-copy-rate, coalesce, flush-window, \
     max-extent, shards, admission, lease-s (client-cache lease \
     seconds), clock (real | virtual), seed"

  exception Bad of string

  let of_args ?base args =
    let base = match base with Some b -> b | None -> default in
    let int v = match int_of_string_opt v with
      | Some n -> n
      | None -> raise (Bad ("not an integer: " ^ v))
    in
    let float v = match float_of_string_opt v with
      | Some f -> f
      | None -> raise (Bad ("not a number: " ^ v))
    in
    let bool v = match v with
      | "true" | "on" | "1" -> true
      | "false" | "off" | "0" -> false
      | _ -> raise (Bad ("not a boolean: " ^ v))
    in
    let apply t kv =
      let k, v =
        match String.index_opt kv '=' with
        | Some i ->
          ( String.sub kv 0 i,
            String.sub kv (i + 1) (String.length kv - i - 1) )
        | None -> raise (Bad ("expected KEY=VALUE, got " ^ kv))
      in
      match k with
      | "size-mb" -> { t with size_mb = int v }
      | "cache-mb" -> { t with cache_mb = int v }
      | "nvram-mb" -> { t with nvram_mb = int v }
      | "trigger" -> (
        match String.split_on_char ':' v with
        | [ "demand" ] -> { t with trigger = Cache.Demand }
        | [ "periodic"; a; s ] ->
          {
            t with
            trigger =
              Cache.Periodic { max_age = float a; scan_interval = float s };
          }
        | _ -> raise (Bad ("trigger: " ^ v)))
      | "scope" -> (
        match v with
        | "whole-file" -> { t with scope = `Whole_file }
        | "single-block" -> { t with scope = `Single_block }
        | _ -> raise (Bad ("scope: " ^ v)))
      | "iosched" -> { t with iosched = v }
      | "replacement" -> { t with replacement = v }
      | "seg-blocks" -> { t with seg_blocks = int v }
      | "cleaner" -> (
        match v with
        | "greedy" -> { t with cleaner = Lfs.Greedy }
        | "cost-benefit" -> { t with cleaner = Lfs.Cost_benefit }
        | _ -> raise (Bad ("cleaner: " ^ v)))
      | "async-flush" -> { t with async_flush = bool v }
      | "mem-copy-rate" -> { t with mem_copy_rate = float v }
      | "coalesce" -> { t with coalesce = bool v }
      | "flush-window" -> { t with flush_window = int v }
      | "max-extent" -> { t with max_extent = int v }
      | "shards" -> { t with shards = int v }
      | "admission" -> { t with admission = int v }
      | "lease-s" -> { t with lease_s = float v }
      | "clock" -> (
        match v with
        | "real" -> { t with clock = `Real }
        | "virtual" -> { t with clock = `Virtual }
        | _ -> raise (Bad ("clock: " ^ v)))
      | "seed" -> { t with seed = int v }
      | k -> raise (Bad ("unknown key " ^ k))
    in
    match List.fold_left apply base args with
    | t -> validate t
    | exception Bad what ->
      Log.err (fun m -> m "of_args: %s" what);
      Error Errno.EINVAL
end

type t = {
  sched : Sched.t;
  client : Capfs.Client.t;
  registry : Capfs_stats.Registry.t option;
  config : Config.t;
  transport : Driver.transport;
}

(* Only a new or zero-filled image may be formatted: its superblock
   block is all zero bytes. Any other image that fails to mount holds
   somebody's data — another layout, a damaged checkpoint — and
   formatting it would destroy what is left. *)
let blank_superblock path =
  In_channel.with_open_bin path (fun ic ->
      let buf = Bytes.make block_bytes '\000' in
      (* a short image reads as zeroes past its end *)
      ignore (In_channel.really_input ic buf 0 block_bytes);
      Bytes.for_all (fun c -> c = '\000') buf)

let create ?registry ?injector (cfg : Config.t) =
  match Config.validate cfg with
  | Error _ as e -> e
  | Ok cfg -> (
    let sched =
      Sched.create ~seed:cfg.Config.seed ?injector ~clock:cfg.Config.clock ()
    in
    let transport =
      File_blockdev.transport sched ~path:cfg.Config.image
        ~size_bytes:(cfg.Config.size_mb * 1024 * 1024)
        ()
    in
    let flat_geometry =
      Geometry.v ~cylinders:transport.Driver.total_sectors ~heads:1
        ~sectors_per_track:1 ~sector_bytes:transport.Driver.sector_bytes ()
    in
    (* instance names and coalescing knobs deliberately match Patsy's
       single-disk farm, so the two halves register identical counter
       keys and batch I/O identically (the diffval contract;
       VALIDATION.md) *)
    let spb = block_bytes / transport.Driver.sector_bytes in
    let driver =
      Driver.create ?registry ~name:(Capfs_stats.Names.driver 0)
        ~policy:(Iosched.by_name flat_geometry cfg.Config.iosched)
        ~coalesce:cfg.Config.coalesce
        ~max_merge_sectors:(cfg.Config.max_extent * spb)
        sched transport
    in
    (* [create] runs outside the scheduler, but mounting needs fibre
       context (driver I/O blocks): do the assembly in a bootstrap
       fibre. *)
    let assembled = ref None in
    ignore
      (Sched.spawn sched ~name:"pfs.boot" (fun () ->
           let lfs_name = Capfs_stats.Names.lfs 0 in
           let lfs_config = Config.lfs_config cfg in
           let volume =
             try
               Lfs.mount ?registry ~name:lfs_name ~config:lfs_config sched
                 driver
             with Codec.Corrupt reason ->
               if not (blank_superblock cfg.Config.image) then begin
                 Log.err (fun m ->
                     m "image %s is not a mountable LFS volume (%s): \
                        refusing to format it"
                       cfg.Config.image reason);
                 raise (Errno.Error Errno.EIO)
               end;
               Log.info (fun m ->
                   m "image %s is blank: formatting" cfg.Config.image);
               Lfs.format_and_mount ?registry ~name:lfs_name
                 ~config:lfs_config sched driver ~block_bytes
           in
           (* one volume behind the same multiplexer the simulator and
              the sharded server use: identical ino routing everywhere *)
           let layout = Multiplex.layout [| volume |] in
           let cache_config =
             {
               Cache.block_bytes;
               capacity_blocks =
                 cfg.Config.cache_mb * 1024 * 1024 / block_bytes;
               nvram_blocks = cfg.Config.nvram_mb * 1024 * 1024 / block_bytes;
               trigger = cfg.Config.trigger;
               scope = cfg.Config.scope;
               async_flush = cfg.Config.async_flush;
               mem_copy_rate = cfg.Config.mem_copy_rate;
               coalesce = cfg.Config.coalesce;
               flush_window = cfg.Config.flush_window;
               max_extent_blocks = cfg.Config.max_extent;
             }
           in
           (* PFS payloads are always real bytes: give the cache a slab
              arena sized for every frame plus the flush pipeline's
              in-flight extents (overflow falls back to heap buffers) *)
           let arena =
             Capfs_disk.Arena.create ~cell_bytes:block_bytes
               ~cells:
                 (cache_config.Cache.capacity_blocks
                 + cache_config.Cache.nvram_blocks
                 + (cache_config.Cache.flush_window * cfg.Config.max_extent))
               ()
           in
           let replacement =
             Replacement.by_name ~seed:cfg.Config.seed
               ~capacity:cache_config.Cache.capacity_blocks
               cfg.Config.replacement
           in
           let fs =
             Capfs.Fsys.create ?registry ~replacement ~arena ~cache_config
               ~layout sched
           in
           assembled := Some (Capfs.Client.create fs)));
    match Sched.run sched with
    | () -> (
      match !assembled with
      | Some client ->
        Ok
          {
            sched;
            client;
            registry;
            config = cfg;
            transport;
          }
      | None ->
        File_blockdev.close transport;
        Error Errno.EIO)
    | exception Errno.Error e ->
      File_blockdev.close transport;
      Error e)

let snapshot t =
  Option.map
    (Capfs_stats.Snapshot.capture
       ~filter:Capfs_stats.Snapshot.policy_visible)
    t.registry

let shutdown t =
  ignore
    (Sched.spawn t.sched ~name:"pfs.shutdown" (fun () ->
         Capfs.Client.sync_exn t.client));
  Sched.run t.sched;
  File_blockdev.close t.transport
