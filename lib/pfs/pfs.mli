(** PFS: the on-line instantiation of the cut-and-paste framework.

    Assembles the same components Patsy uses — driver with C-LOOK
    queueing, block cache with a pluggable flush policy, segmented LFS,
    abstract client interface — over a {e real} clock and a {e real}
    Unix-file block device. "We did not have to change anything in the
    code except for some small additions when data was actually moved."
    External requests reach the volume through {!Server}, which maps
    each {!Wire} request onto one abstract-client call.

    Construction is two steps: build a validated {!Config.t}, then
    {!create} a volume from it. Every front end — the pfs shell, the
    sharded multi-client server ({!Server}), the load generator, the
    differential validator — goes through the same pair, so a
    configuration knob exists in exactly one place. *)

(** The fixed PFS block size (4096 bytes) — the unit the cache, the
    layouts and the cached client all agree on. *)
val block_bytes : int

(** A full description of one PFS volume: backing image, cache policy
    knobs, layout geometry, scheduler clock. The record is deliberately
    flat and immutable — build one with {!Config.make}, adjust with
    functional update, and let {!Config.validate} (called again by
    {!create}) reject nonsense with a typed [EINVAL] instead of a crash
    deep in construction. *)
module Config : sig
  type t = {
    image : string;  (** backing image path (created when missing) *)
    size_mb : int;  (** image size when creating, MB *)
    cache_mb : int;  (** block-cache capacity, MB *)
    nvram_mb : int;  (** NVRAM staging area, MB (0 = none) *)
    trigger : Capfs_cache.Cache.flush_trigger;
    scope : Capfs_cache.Cache.flush_scope;
    iosched : string;  (** disk-scheduling policy name *)
    replacement : string;  (** cache-replacement policy name *)
    seg_blocks : int;  (** LFS segment size, blocks *)
    cleaner : Capfs_layout.Lfs.cleaner_policy;
    async_flush : bool;
    mem_copy_rate : float;
        (** simulated memcpy speed, bytes/s (0 = free copies); a
            positive rate must copy at least one block a second *)
    coalesce : bool;  (** merge adjacent I/O in cache and driver *)
    flush_window : int;  (** concurrent flush extents *)
    max_extent : int;  (** largest coalesced extent, blocks *)
    shards : int;  (** server namespace shards (see {!Server}) *)
    admission : int;
        (** per-shard admission limit: in-flight requests beyond this
            are refused with a typed [EAGAIN] (0 = unlimited) *)
    lease_s : float;
        (** client-cache lease duration stamped into {!Wire.grant}s:
            how long a {!Cached_client} may serve local hits before
            renewing (must be positive) *)
    clock : Capfs_sched.Sched.clock;
    seed : int;  (** PRNG seed (scheduler and replacement policy) *)
  }

  (** [make ~image ()] — a classic Unix server: 64 MB image, 16 MB
      cache, 30-second-update whole-file flushes, C-LOOK, LRU, real
      clock, one shard. Every field has a keyword to override. *)
  val make :
    ?size_mb:int ->
    ?cache_mb:int ->
    ?nvram_mb:int ->
    ?trigger:Capfs_cache.Cache.flush_trigger ->
    ?scope:Capfs_cache.Cache.flush_scope ->
    ?iosched:string ->
    ?replacement:string ->
    ?seg_blocks:int ->
    ?cleaner:Capfs_layout.Lfs.cleaner_policy ->
    ?async_flush:bool ->
    ?mem_copy_rate:float ->
    ?coalesce:bool ->
    ?flush_window:int ->
    ?max_extent:int ->
    ?shards:int ->
    ?admission:int ->
    ?lease_s:float ->
    ?clock:Capfs_sched.Sched.clock ->
    ?seed:int ->
    image:string ->
    unit ->
    t

  (** [validate t] checks every field against its domain (positive
      sizes, known policy names from
      {!Capfs_disk.Iosched.known_policies} and
      {!Capfs_cache.Replacement.known_policies}, non-empty image path)
      and returns the config unchanged or [Error EINVAL], logging each
      violation. {!create} validates again, so callers building configs
      in OCaml may skip this; front ends parsing user input should not.
  *)
  val validate : t -> (t, Capfs_core.Errno.t) result

  (** The knobs {!create} assembles the volume's {!Capfs.Stack} from. *)
  val stack_config : t -> Capfs.Stack.config

  (** Manpage-style description of the [KEY=VALUE] grammar, for CLI
      [--set] documentation. *)
  val arg_doc : string

  (** [of_args args] folds [KEY=VALUE] settings over [base] (default:
      [make ~image:"" ()] — supply [base] or a [size-mb]/[image]-less
      override set and set the image on the result) and validates.
      Unknown keys, malformed values and out-of-domain results are all
      [Error EINVAL]. This is the {e single} argument grammar shared by
      the pfs CLI, patsy's [--diff-skew], the load generator and test
      fixtures. *)
  val of_args : ?base:t -> string list -> (t, Capfs_core.Errno.t) result
end

type t = {
  sched : Capfs_sched.Sched.t;
      (** the volume's scheduler (real clock in production, virtual in
          tests) *)
  client : Capfs.Client.t;  (** the abstract client interface *)
  registry : Capfs_stats.Registry.t option;
      (** the registry passed to {!create}, if any — the handle
          {!snapshot} freezes *)
  config : Config.t;  (** the validated config the volume was built from *)
  transport : Capfs_disk.Driver.transport;
      (** the Unix-file block device under the driver *)
}

(** [create cfg] opens the file-system image at [cfg.image] and
    assembles one volume: driver, cache, LFS behind a single-way
    {!Capfs_layout.Multiplex.layout}, abstract client interface. Only a
    new or zero-filled image (an all-zero superblock block) is
    formatted. An image that holds data but does not mount as LFS —
    another layout's image, or one whose checkpoints are both damaged —
    is [Error EIO] and is not written to. Validation failures and typed
    construction errors come back as [Error]; [injector] threads a fault
    plan into the scheduler (the differential validator's hook). *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?injector:Capfs_fault.Injector.t ->
  Config.t ->
  (t, Capfs_core.Errno.t) result

(** Flush everything, checkpoint, and close the backing image (call
    before exiting). *)
val shutdown : t -> unit

(** [snapshot t] freezes the volume's statistics registry restricted to
    the policy-visible keys ({!Capfs_stats.Snapshot.policy_visible}) —
    the on-line half of a differential sim-vs-real comparison. [None]
    when {!create} was given no registry. Capture after a sync (e.g.
    {!shutdown}) for complete flush counters. *)
val snapshot : t -> Capfs_stats.Snapshot.t option
