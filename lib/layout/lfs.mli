(** Segmented log-structured file system layout (Rosenblum & Ousterhout,
    Seltzer et al.) — the layout the paper ran on all its file systems.

    The disk is divided into a superblock, two alternating checkpoint
    regions and an array of fixed-size segments. All updates — data
    blocks, indirect blocks, inodes — are appended to the current
    segment buffer; full segments are written to disk in one large
    sequential I/O. An in-memory inode map (the IFILE's job) tracks each
    inode's latest on-disk address and is persisted by checkpoints; a
    per-segment usage table drives the cleaner.

    {b Cleaning.} When free segments fall below [min_free_segments] the
    cleaner reclaims segments until [target_free_segments] are free,
    picking victims greedily (least live data) or by Rosenblum's
    cost-benefit ratio, and re-appending live blocks to the log head.
    The log cleaner "can be replaced and is plugged into the LFS
    component when the system starts up".

    {b Recovery.} [mount] reads the newer valid checkpoint and then
    rolls forward: segment summary blocks with a sequence number newer
    than the checkpoint re-establish inode-map entries written after it.

    {b Durability note.} [write_blocks] returns once the blocks sit in
    the open segment buffer (classic LFS behaviour); [sync] seals the
    partial segment and writes a checkpoint. *)

type cleaner_policy = Greedy | Cost_benefit

type config = {
  seg_blocks : int;          (** blocks per segment, incl. the summary *)
  checkpoint_blocks : int;   (** size of each checkpoint region *)
  cleaner : cleaner_policy;
  min_free_segments : int;   (** cleaning trigger *)
  target_free_segments : int;
  first_ino : int;           (** first inode number to mint (default 1) *)
  ino_stride : int;
      (** mint inos [first_ino, first_ino + stride, …] so several
          volumes behind one server share the ino space disjointly *)
}

(** 128-block (512 KB) segments, cost-benefit cleaning, ino stride 1. *)
val default_config : config

(** {2 Metadata in the log}

    Every metadata structure (segment summary, inode, indirect block,
    checkpoint, superblock) is built in a buffer of its exact length and
    reaches the disk as {!padded}: its bytes, then zeroes up to the
    next block boundary. *)

(** What a block in the log is, as its segment's summary records it. *)
type entry =
  | E_data of int * int  (** (ino, file block) *)
  | E_inode of int
  | E_indirect of int

(** [padded ~block_bytes body] is [body] followed by simulated zeroes
    up to the next multiple of [block_bytes]. Every transport persists
    simulated bytes as zeroes, so the image holds what a zero-filled
    buffer would, without one being allocated. *)
val padded : block_bytes:int -> Capfs_disk.Data.t -> Capfs_disk.Data.t

(** [encode_summary ~seq entries] is the summary block of a segment
    sealed at sequence [seq]: a magic, [seq], the entries and an
    Adler-32, 24 + 17 bytes an entry. *)
val encode_summary : seq:int -> entry list -> bytes

(** Inverse of {!encode_summary}; the bytes after the entries (the crc
    and padding) are not read. Raises [Codec.Corrupt] on a bad magic or
    tag, or more entries than a segment of [seg_blocks] has blocks
    besides its summary. *)
val decode_summary : seg_blocks:int -> string -> int * entry list

(** [min_blocks config] — the smallest disk, in blocks,
    {!format_and_mount} accepts under [config]: the superblock, both checkpoint regions and
    [target_free_segments + 2] segments. A smaller one raises
    [Invalid_argument]. *)
val min_blocks : config -> int

(** [mount sched driver ~block_bytes] reads the superblock and newer
    checkpoint, rolls the log forward, and returns the layout interface.
    Raises [Codec.Corrupt] on an invalid image and
    {!Capfs_core.Errno.Error} on I/O failure. The [config] cleaning
    parameters override the defaults (the on-disk geometry always comes
    from the superblock). *)
val mount :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  ?config:config ->
  Capfs_sched.Sched.t ->
  Capfs_disk.Driver.t ->
  Layout.t

(** What {!recover} did and found. *)
type recovery_report = {
  r_checkpoint_seq : int;    (** sequence of the checkpoint restored from *)
  r_rolled_segments : int;   (** log segments newer than that checkpoint *)
  r_recovered_inodes : int;  (** inode-map entries live after recovery *)
  r_fsck_errors : string list;
      (** structural inconsistencies (unloadable inodes, out-of-volume
          addresses); empty on a clean recovery *)
}

(** [recover sched driver] is the crash-recovery entry point: {!mount}
    (newer valid checkpoint + roll-forward over the segment summaries)
    followed by a structural consistency sweep of the recovered inode
    map. Returns the mounted layout and a report; [Error EIO] when no
    valid checkpoint survives, [Error e] for driver failures during
    recovery. Emits a [Recovery] trace event when tracing is on. *)
val recover :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  ?config:config ->
  Capfs_sched.Sched.t ->
  Capfs_disk.Driver.t ->
  (Layout.t * recovery_report, Capfs_core.Errno.t) result

(** [format_and_mount sched driver ~block_bytes] writes a fresh, empty
    file system (superblock, initial checkpoint, all segments free) and
    mounts it without re-reading metadata from disk, so it also works on
    simulated disks that store no real bytes. Raises
    {!Capfs_core.Errno.Error} if the disk fails underneath. *)
val format_and_mount :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  ?config:config ->
  Capfs_sched.Sched.t ->
  Capfs_disk.Driver.t ->
  block_bytes:int ->
  Layout.t
