(** The one recipe that assembles a file-system instance.

    Patsy's farm, a PFS volume, crash recovery and the differential
    validator's fsck remounts all build the same stack: one driver per
    device, one LFS volume per driver, the volumes behind one
    {!Capfs_layout.Multiplex} router, then the cache, {!Fsys} and the
    {!Client}. Volume [i] of [n] is named [driver<i>]/[lfs<i>]
    ({!Capfs_stats.Names}) and mints inodes [i + 1], [i + 1 + n], …

    Mounting does driver I/O, which only a fibre can wait on, so
    assembly takes two steps: {!create} starts the drivers (outside the
    scheduler too), {!mount} builds the rest from inside a fibre. *)

(** The knobs every instantiation shares. *)
type config = {
  cache : Capfs_cache.Cache.config;
      (** its [block_bytes] is the volumes' block size; [coalesce] and
          [max_extent_blocks] also set the drivers' request merge *)
  lfs : Capfs_layout.Lfs.config;
      (** [first_ino] and [ino_stride] are set per volume *)
  iosched : string;  (** {!Capfs_disk.Iosched.by_name} *)
  replacement : string;  (** {!Capfs_cache.Replacement.by_name} *)
  seed : int;  (** seeds the replacement policy *)
}

(** Drivers started, volumes not yet mounted. *)
type t

(** [create sched config transports] starts one driver per transport,
    in order. Their queue policy orders requests by [geometry] (default:
    a flat one, one sector per cylinder, for an image file). *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?geometry:Capfs_disk.Geometry.t ->
  Capfs_sched.Sched.t ->
  config ->
  Capfs_disk.Driver.transport array ->
  t

type mount =
  | Format  (** format every volume afresh *)
  | Mount_or_format of (string -> bool)
      (** mount every volume; [may_format reason] decides whether a
          volume that does not mount as LFS, for [reason], may be
          formatted; refused, the mount fails with [EIO] *)
  | Recover of
      (string ->
      (Capfs_layout.Lfs.recovery_report, Capfs_core.Errno.t) result ->
      unit)
      (** {!Capfs_layout.Lfs.recover} every volume, handing each
          volume's name and result to the function, in order *)

(** [mount t mode] mounts the volumes and returns the assembled
    instance's client. It raises {!Capfs_core.Errno.Error} when a
    volume does not mount (under [Recover], once every volume was
    tried). *)
val mount : t -> mount -> Client.t
