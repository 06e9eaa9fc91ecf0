(** The file-system block cache.

    This is the component the paper's evaluation revolves around. It
    administers clean and dirty blocks on LRU lists, allocates "first from
    the non-dirty list, and when there are no non-dirty blocks available …
    initiates a cache flush through the oldest dirty block", and lets both
    the replacement policy and the flush policy be swapped out.

    {2 Flush policies}

    The four write policies of the paper's experiments are configurations
    of this one module:

    - {b write-delay} (Unix 30-second-update): [trigger = Periodic
      {max_age = 30.; scan_interval}] — a daemon scans the cache and
      flushes the file owning any dirty block older than [max_age];
    - {b UPS write-saving}: [trigger = Demand] — dirty data stays in
      (battery-backed) RAM until block allocation runs out of clean
      blocks;
    - {b NVRAM}: [nvram_blocks > 0] — dirty data may only occupy the
      NVRAM pool; writers stall while it is full, draining the oldest
      dirty blocks;
    - whole-file vs. partial flush: [scope] selects whether a flush takes
      the single oldest block or every dirty block of its file.

    Flushes are asynchronous by default (a dedicated flusher fibre), the
    §5.2 lesson; [async_flush = false] restores the original synchronous
    behaviour for the ablation benchmark.

    With [coalesce = true] the flusher also {e clusters}: queued flush
    jobs are merged, the flush set is sorted by (ino, index) and cut
    into contiguous extents of at most [max_extent_blocks], and each
    extent goes down as one vectored [writeback] call, with up to
    [flush_window] extents in flight at once. A single-block demand
    flush additionally drags along the oldest block's file-contiguous
    dirty neighbours. [coalesce = false] (the default) keeps the
    pre-clustering flush path bit-identical.

    {2 Write-back plumbing}

    The cache does not know what a disk is: [writeback] (usually the
    storage layout's [write_blocks], whose [(ino, index, data)] batch
    signature it matches exactly so no adapter list is rebuilt per
    flush chunk) persists a batch of blocks and blocks the flusher
    fibre until they are on stable storage.

    Dirty blocks dropped by [truncate]/[remove_file] before any flush are
    counted as {e absorbed} writes — the disk traffic the write-saving
    policies exist to save. *)

type flush_trigger =
  | Demand
  | Periodic of { max_age : float; scan_interval : float }

type flush_scope = [ `Whole_file | `Single_block ]

type config = {
  block_bytes : int;
  capacity_blocks : int;  (** volatile block frames *)
  nvram_blocks : int;     (** 0 disables the NVRAM pool *)
  trigger : flush_trigger;
  scope : flush_scope;
  async_flush : bool;
  mem_copy_rate : float;  (** bytes/s charged per block copy; 0 = free *)
  coalesce : bool;
      (** cluster flush sets into contiguous extents and pipeline them;
          [false] reproduces the pre-clustering flush behaviour exactly *)
  flush_window : int;
      (** max extent write-backs in flight at once (coalesce only) *)
  max_extent_blocks : int;
      (** cap on one extent's length in blocks (coalesce only) *)
}

(** 30-second-update defaults: 4 KB blocks, periodic flush, whole-file
    scope, asynchronous flusher, no NVRAM, free copies, no coalescing
    (window 4 / extent cap 64 take effect when [coalesce] is turned on). *)
val default_config : capacity_blocks:int -> config

type t

(** [create sched ~writeback config] spawns the flusher (and the periodic
    scan daemon if configured). [replacement] defaults to LRU.
    Statistics are registered under [name] (default "cache"):
    hits, misses, evictions, flushed_blocks, absorbed_writes, overwrites,
    read_stall, write_stall, dirty_blocks, nvram_used.

    The cache keeps every payload it is given ({!write}, or a miss
    {!read}'s fill) by reference and never writes into it; the payload
    travels on by reference (vectored write-back, scatter-gather
    request) to the device boundary. *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  ?replacement:Replacement.t ->
  writeback:((int * int * Capfs_disk.Data.t) list -> unit) ->
  Capfs_sched.Sched.t ->
  config ->
  t

val config : t -> config

(** [read t key ~fill] returns the block's data, calling [fill key] (a
    blocking read from the layout) on a miss. Concurrent misses on the
    same key share one fill. [fill] receives the key so callers can
    reuse one long-lived fill function instead of allocating a closure
    capturing the index on every read. *)
val read :
  t ->
  Block.Key.t ->
  fill:(Block.Key.t -> Capfs_disk.Data.t) ->
  Capfs_disk.Data.t

(** [write t key data] buffers [data] as the block's new contents; the
    cache owns it from then on, and nobody may write into its bytes
    again ({!Capfs_disk.Data}'s ownership rule). May stall for NVRAM
    space or a clean frame; returns once buffered (write-back). *)
val write : t -> Block.Key.t -> Capfs_disk.Data.t -> unit

(** [peek t key] is the cached data without side effects (no policy
    update, no fill). *)
val peek : t -> Block.Key.t -> Capfs_disk.Data.t option

(** [truncate t ino ~from] drops every cached block of [ino] with index
    >= [from]. *)
val truncate : t -> int -> from:int -> unit

(** Drop every block of the file — the delete path. *)
val remove_file : t -> int -> unit

(** Write every dirty block of [ino] and wait for stable storage. *)
val flush_file : t -> int -> unit

(** Write back everything; returns when the cache is wholly clean. *)
val sync : t -> unit

(** {2 Introspection} *)

val block_count : t -> int
val dirty_count : t -> int

(** Dirty blocks currently occupying NVRAM slots. *)
val nvram_used : t -> int

val contains : t -> Block.Key.t -> bool

(** Keys of the file's cached blocks (unordered). *)
val keys_of_file : t -> int -> Block.Key.t list

(** The dirty list, oldest first: every block in state [Dirty], in the
    order each last became dirty. *)
val dirty_blocks : t -> Block.t list
