(** The write-saving policy experiments (§5.1 of the paper).

    An experiment builds a complete Patsy instance — virtual-time
    scheduler, [ndisks] simulated HP97560 drives spread over [nbuses]
    SCSI-2 buses, one segmented-LFS volume per disk behind a shared
    server cache — configures one of the four flush policies, replays a
    trace, and returns the measured latency distribution.

    Policies:
    - {!Write_delay}: the Unix 30-second-update baseline;
    - {!Ups}: write-saving — dirty data stays in (UPS-protected) RAM
      until block allocation runs out of clean frames;
    - {!Nvram_whole}: dirty data confined to a small NVRAM, whole-file
      drains;
    - {!Nvram_partial}: same NVRAM, single-block drains. *)

type policy = Write_delay | Ups | Nvram_whole | Nvram_partial

val policy_name : policy -> string
val all_policies : policy list

type config = {
  policy : policy;
  cache_mb : int;           (** server cache, MB (paper: 128) *)
  nvram_mb : int;           (** NVRAM pool, MB (paper: 4) *)
  ndisks : int;             (** simulated HP97560 drives *)
  nbuses : int;             (** SCSI-2 buses the disks share *)
  disk_model : Capfs_disk.Disk_model.t;
  iosched : string;         (** disk-queue policy name (paper: clook) *)
  replacement : string;     (** cache replacement policy name *)
  mem_copy_rate : float;    (** simulated memcpy bytes/s (0 = free) *)
  seg_blocks : int;         (** LFS segment size in blocks *)
  cleaner : Capfs_layout.Lfs.cleaner_policy;
  async_flush : bool;       (** §5.2 lesson; false for the ablation *)
  coalesce : bool;
      (** I/O coalescing end to end: the cache clusters flush sets into
          contiguous extents and the driver merges adjacent queued
          requests. [false] restores the pre-clustering behaviour
          bit-for-bit. *)
  flush_window : int;       (** extent write-backs in flight at once *)
  max_extent : int;         (** extent / merge cap, in file blocks *)
  request_overhead : float option;
      (** per-request fixed disk cost (controller command decode),
          seconds; [None] keeps the disk model's own figure *)
  seed : int;
  trace_buffer : int;
      (** event-trace ring capacity; 0 (the default) disables tracing *)
  fault_plan : Capfs_fault.Plan.t option;
      (** disk-fault schedule for this run; [None] (the default) keeps
          every disk perfect. The plan's own seed, when unset, defaults
          to [seed], so a config is fully deterministic. *)
}

(** Paper-shaped defaults for a policy (128 MB cache, 4 MB NVRAM, 10
    disks on 3 buses, C-LOOK, LRU). *)
val default : policy -> config

type outcome = {
  name : string;
  config : config;
  replay : Replay.result;
  registry : Capfs_stats.Registry.t;
  layout_stats : (string * float) list;
  (* headline counters summed over the run *)
  blocks_flushed : int;     (** cache blocks written to the log *)
  writes_absorbed : int;    (** dirty blocks that died in memory *)
  cache_hit_rate : float;
  events : Capfs_obs.Event.t list;
      (** the run's structured event trace, oldest first; empty unless
          [config.trace_buffer] > 0 *)
}

(** [snapshot outcome] freezes the outcome's registry restricted to the
    policy-visible keys ({!Capfs_stats.Snapshot.policy_visible}) — the
    simulator half of a differential sim-vs-real comparison. The replay
    already drained outstanding writes with a final sync, so the flush
    counters are complete. *)
val snapshot : outcome -> Capfs_stats.Snapshot.t

(** [run config ~trace] executes one experiment in its own virtual-time
    scheduler and returns the measurements. Every run builds a private
    scheduler, disk farm, cache and statistics registry, so concurrent
    runs in different domains share no mutable state; the trace records
    are read, never written. Every source streams through the one
    replay engine, keeping replay memory O(active window) however long
    the trace is (see {!Replay.run}). *)
val run : config -> trace:Capfs_trace.Source.t -> outcome

(** The simulator's devices: one driver per disk, no volume mounted. *)
type farm = {
  f_stack : Capfs.Stack.t;
  f_registry : Capfs_stats.Registry.t;
  f_disks : Capfs_disk.Sim_disk.t array;
}

(** [build_farm sched config] builds the buses, the disks and their
    drivers; [Stack.mount farm.f_stack Format] builds the rest of the
    stack [run] replays against. [backing:true] (default false) gives
    every disk an in-memory sector store, so its contents survive a
    simulated crash. [restore] (one {!Capfs_disk.Sim_disk.store_snapshot}
    per disk) implies [backing] and seeds each disk from its snapshot. *)
val build_farm :
  ?backing:bool ->
  ?restore:(int * bytes) array array ->
  Capfs_sched.Sched.t ->
  config ->
  farm

(** The injector [run] wires into the scheduler: built from
    [config.fault_plan] (the null injector when [None]). *)
val injector_of : config -> Capfs_fault.Injector.t

(** The stack knobs [config] implies: the cache configuration of
    [config.policy], and each volume's LFS geometry and cleaner. *)
val stack_config : config -> Capfs.Stack.config
