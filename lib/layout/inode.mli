(** Inodes — the per-file metadata every storage layout persists.

    The block map is a growable in-memory array of disk-block addresses
    ({!addr_none} marks holes). Layouts serialize the first
    {!ndirect} addresses inline and spill the remainder into indirect
    blocks they allocate themselves. *)

type kind = Regular | Directory | Symlink | Multimedia

(** Address of a hole / unallocated block. *)
val addr_none : int

(** Direct addresses stored inline in the on-disk inode. *)
val ndirect : int

type t = {
  ino : int;
  mutable kind : kind;
  mutable size : int;     (** bytes *)
  mutable nlink : int;
  mutable uid : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable blocks : int array;  (** disk address per file block *)
  mutable nblocks : int;       (** addresses in use *)
}

(** [make ~ino ~kind ~now] is a fresh empty inode ([nlink = 1], all
    three timestamps set to [now], no blocks mapped). *)
val make : ino:int -> kind:kind -> now:float -> t

(** [get_addr t i] is the disk address of file block [i], or
    [addr_none]. *)
val get_addr : t -> int -> int

(** [set_addr t i addr] grows the map as needed. *)
val set_addr : t -> int -> int -> unit

(** [truncate_blocks t ~blocks] drops addresses at index >= [blocks] and
    returns the dropped (non-hole) addresses, for the layout to free. *)
val truncate_blocks : t -> blocks:int -> int list

(** Addresses currently mapped, as (file_block, disk_addr) pairs. *)
val mapped : t -> (int * int) list

(** The on-disk encoding of {!kind}. [kind_of_int] raises
    [Codec.Corrupt] on an unknown tag. *)
val kind_to_int : kind -> int

val kind_of_int : int -> kind

(** [serialize w t ~indirect] writes everything except the spilled block
    map into [w]: the caller passes the disk addresses of the indirect
    blocks it wrote. *)
val serialize : Codec.Writer.t -> t -> indirect:int list -> unit

(** [encode t ~indirect] is {!serialize}'s bytes, built in a buffer of
    exactly their length. *)
val encode : t -> indirect:int list -> bytes

(** [encode_indirect t ~block_bytes ~k] is indirect block [k] of [t],
    which {!load_indirect} reads: the count of addresses it maps, then
    the addresses, at exactly that length. *)
val encode_indirect : t -> block_bytes:int -> k:int -> bytes

(** Inverse of {!serialize} for a volume of [block_bytes] blocks:
    returns the inode (with only direct addresses present) and the
    indirect block addresses to fetch. Raises [Codec.Corrupt] before
    allocating the block map when the stored block count exceeds what
    an inode block can map, or disagrees with the indirect count. *)
val deserialize : block_bytes:int -> string -> t * int list

(** [load_indirect t ~block_bytes ~k s] maps the addresses stored in
    [s], indirect block [k] of [t]. Raises [Codec.Corrupt] when its
    count exceeds the addresses an indirect block holds, or the blocks
    [t] has past the block's first index. *)
val load_indirect : t -> block_bytes:int -> k:int -> string -> unit

(** How many block addresses fit in one indirect block of [block_bytes]. *)
val addrs_per_indirect : block_bytes:int -> int

(** How many indirect block addresses fit in an inode block. *)
val max_indirect : block_bytes:int -> int

(** One-line rendering (ino, kind, size, mapped blocks) for logs. *)
val pp : Format.formatter -> t -> unit
