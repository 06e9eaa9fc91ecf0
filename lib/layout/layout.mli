(** The abstract storage-layout interface.

    "The base storage-layout class is only an interface: it does not
    implement an algorithm. Specific layouts are implemented through
    derived classes… for all layout and policy decisions, there exists a
    virtual method." A [Layout.t] is that interface as a record of
    closures; {!Lfs}, {!Ffs}, {!Jfs} and {!Sim_layout} instantiate it,
    and {!Multiplex} routes one namespace over several of them. The
    file-system core is "consulted whenever something needs to be done
    with a raw disk" exclusively through this record.

    Every operation that can fail — allocation on a full volume, I/O
    through a faulty disk — reports [('a, Capfs_core.Errno.t) result]:
    [Error ENOSPC] for exhausted space, [Error EIO]/[ETIMEDOUT] passed
    up from the driver. Implementations keep exceptions internal (they
    may raise {!Capfs_core.Errno.Error} and catch it at this boundary),
    so no layout error escapes as an exception. *)

type t = {
  l_name : string;
  block_bytes : int;
  total_blocks : int;
  (* inodes *)
  alloc_inode : kind:Inode.kind -> (Inode.t, Capfs_core.Errno.t) result;
      (** mint a fresh in-core inode with a unique number;
          [Error ENOSPC] when the inode space is exhausted *)
  get_inode : int -> (Inode.t option, Capfs_core.Errno.t) result;
      (** fetch (loading from disk if necessary); [Ok None] if free *)
  update_inode : Inode.t -> unit;
      (** schedule the inode's new state for persistence (in-core;
          cannot fail — persistence happens at [sync]) *)
  free_inode : int -> (unit, Capfs_core.Errno.t) result;
      (** release the number and its blocks *)
  (* file blocks *)
  read_block : Inode.t -> int -> (Capfs_disk.Data.t, Capfs_core.Errno.t) result;
      (** blocking read of one file block (holes read as zeroes) *)
  write_blocks :
    (int * int * Capfs_disk.Data.t) list -> (unit, Capfs_core.Errno.t) result;
      (** write-back of [(ino, file_block, data)] from the cache;
          blocking until on stable storage *)
  truncate : Inode.t -> blocks:int -> (unit, Capfs_core.Errno.t) result;
      (** release file blocks at index >= [blocks] *)
  adopt : Inode.t -> blocks:int -> (unit, Capfs_core.Errno.t) result;
      (** simulator aid: instantly assign on-disk addresses to the
          file's first [blocks] blocks, as if they had been written long
          ago — "if a file is accessed that is not yet known … it picks a
          random location on disk. Once an initial location has been
          chosen, the simulator sticks to those addresses." Costs no
          simulated time; subsequent reads miss the cache and pay real
          disk time. *)
  sync : unit -> (unit, Capfs_core.Errno.t) result;
      (** persist all metadata (checkpoint) *)
  (* diagnostics *)
  free_blocks : unit -> int;
  layout_stats : unit -> (string * float) list;
}
