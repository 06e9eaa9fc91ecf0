(** Instantiated files.

    "Abstract client requests are dispatched to so-called instantiated
    files. An instantiated file is used to control a file that has been
    loaded into the file-system cache" — it holds the in-core inode,
    routes reads and writes through the block cache (read-modify-write
    for partial blocks), and implements per-type behaviour: regular
    files, directories, symbolic links and {e active} multimedia files
    whose own fibre pre-loads data ahead of the reader. *)

type t

(** [instantiate fsys inode] wraps an in-core inode. Multimedia inodes
    get their active prefetch fibre when first opened. *)
val instantiate : Fsys.t -> Capfs_layout.Inode.t -> t

val inode : t -> Capfs_layout.Inode.t
val ino : t -> int
val kind : t -> Capfs_layout.Inode.kind
val size : t -> int

(** The file system's block size; writes aligned to it replace blocks
    wholesale with no read-modify-write. *)
val block_bytes : t -> int

(** [read t ~offset ~bytes] returns the data actually read (short at
    EOF; empty beyond it). Holes read as zeroes. A range inside one
    block comes back as a borrowed view of the cached block, valid only
    until the caller next yields; a longer range is copied into one
    fresh buffer. *)
val read : t -> offset:int -> bytes:int -> Capfs_disk.Data.t

(** [read_into t arena ~offset ~bytes] reads like {!read}, but copies
    each block's piece into its own cell of [arena] as soon as that
    block is fetched, and returns them as one {!Capfs_disk.Data.gather}.
    The caller owns every cell and releases the result with
    {!Capfs_disk.Data.release}. A piece falls back to a heap buffer
    when [arena] has no free cell. *)
val read_into :
  t -> Capfs_disk.Arena.t -> offset:int -> bytes:int -> Capfs_disk.Data.t

(** [write t ~offset data] buffers the write in the cache (write-back)
    and grows the file as needed. A payload within one block reaches the
    cache without a copy: the caller hands it over, as with
    [Client.write]. *)
val write : t -> offset:int -> Capfs_disk.Data.t -> unit

(** Shrink or grow (sparsely) to [size] bytes. Shrinking drops cached
    blocks beyond the new end — in-memory dirty data dies without disk
    traffic. *)
val truncate : t -> size:int -> unit

(** Drop the file's cached blocks without touching the layout: unlike
    {!truncate}, the on-disk block mapping survives. An unflushed dirty
    version dies in memory (the write-saving effect), and the next
    write starts a fresh delayed-write aging clock. *)
val drop_cached : t -> unit

(** Write the file's dirty blocks to stable storage (fsync). *)
val flush : t -> unit

(** {2 Open-count plumbing (used by the file table)} *)

val opened : t -> unit
val closed : t -> unit
val open_count : t -> int

(** {2 Multimedia}

    A multimedia file is {e active}: while open, a dedicated fibre reads
    ahead of the highest offset any client has read, keeping
    [mm_window_blocks] blocks resident so real-time readers never stall
    on the disk. It stops when the file is closed. *)

val mm_window_blocks : int
