(** Cache block descriptors.

    A block is identified by (file, index) — the cache is a file-block
    cache, as in the paper, not a device-block cache: the flush policies
    reason about "the file associated with the oldest dirty block", and
    truncate/delete drop a file's dirty blocks before they ever reach the
    disk (the write-saving effect the experiments measure). *)

module Key : sig
  (** (inode number, block index within the file), packed into one
      immediate [int]: ino in the high bits, index in the low
      25 bits. Keys built on the read/write hot path therefore
      allocate nothing, and hashing them is pure integer arithmetic
      instead of a polymorphic traversal of a boxed pair. *)
  type t = private int

  (** Largest representable block index, [2^25 - 1] (a 32 TB
      file at 4 KB blocks). *)
  val max_index : int

  (** Largest representable inode number ([2^37 - 1] on 64-bit). *)
  val max_ino : int

  (** [v ino index] packs a key; raises [Invalid_argument] if either
      component is negative or exceeds its field width. *)
  val v : int -> int -> t

  val ino : t -> int
  val index : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int

  (** Multiplicative mixing hash — spreads ino and index bits across
      the low bits that [Hashtbl]'s power-of-two mask keeps. *)
  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end

type state =
  | Clean    (** matches the on-disk contents *)
  | Dirty    (** newer than disk; scheduled to be written eventually *)
  | Flushing (** a write-back holds a snapshot; re-writes re-dirty it *)

type t = {
  key : Key.t;
  mutable data : Capfs_disk.Data.t;
  mutable state : state;
  mutable dirtied_at : float;   (** when it last became dirty *)
  mutable last_access : float;
  mutable access_count : int;   (** for frequency-based replacement *)
  mutable version : int;        (** bumped by every write *)
  mutable in_nvram : bool;
  mutable pinned : int;         (** >0 while an I/O or fill references it *)
  mutable policy_slot : int;    (** private to the replacement policy *)
  mutable zombie : bool;
      (** invalidated while a flush snapshot was in flight; the flusher
          discards it on completion *)
}

val make : key:Key.t -> data:Capfs_disk.Data.t -> now:float -> t
val ino : t -> int
val index : t -> int
val is_dirty : t -> bool
val evictable : t -> bool
val pin : t -> unit
val unpin : t -> unit
val pp : Format.formatter -> t -> unit
