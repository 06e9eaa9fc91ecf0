(** The assembled file-system instance.

    An [Fsys.t] wires the cut-and-paste components together: the
    scheduler, the block cache and a storage layout — with the cache's
    write-back path routed into the layout. Everything above (files,
    namespace, client interface) and everything below (disks, drivers)
    is identical between PFS and Patsy; only the scheduler's clock and
    the driver's transport differ. *)

type t = {
  sched : Capfs_sched.Sched.t;
  registry : Capfs_stats.Registry.t;
  cache : Capfs_cache.Cache.t;
  layout : Capfs_layout.Layout.t;
}

(** The root directory's inode number (1). *)
val root_ino : int

(** [create sched ~layout ~cache_config ()] builds the instance:
    allocates the cache with its write-back wired to
    [layout.write_blocks], and creates the root directory if the layout
    does not know it yet (fresh file system). The cache must use the
    layout's block size. [replacement] picks the cache replacement
    policy (default LRU). *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?replacement:Capfs_cache.Replacement.t ->
  cache_config:Capfs_cache.Cache.config ->
  layout:Capfs_layout.Layout.t ->
  Capfs_sched.Sched.t ->
  t

(** The layout's block size, which the cache shares. *)
val block_bytes : t -> int

val now : t -> float

(** Root directory inode. Raises {!Capfs_core.Errno.Error} if loading
    it fails. *)
val root : t -> Capfs_layout.Inode.t

(** Flush every dirty block and checkpoint the layout. *)
val sync : t -> (unit, Capfs_core.Errno.t) result
