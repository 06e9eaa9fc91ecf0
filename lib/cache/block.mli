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

(** A hash table on inode numbers, hashed with {!Key.hash}'s mix
    instead of the polymorphic [caml_hash]. Its iteration order differs
    from [Hashtbl]'s, so it serves only tables that nothing iterates. *)
module Ino_table : Hashtbl.S with type key = int

type state =
  | Clean    (** matches the on-disk contents *)
  | Dirty    (** newer than disk; scheduled to be written eventually *)
  | Flushing (** a write-back holds a snapshot; re-writes re-dirty it *)

(** A block's two timestamps, kept in a float-only record so storing a
    time writes the float in place instead of boxing it. *)
type times = {
  mutable dirtied_at : float;  (** when it last became dirty *)
  mutable last_access : float;
}

(** A cached block. Besides its contents and state it carries the links
    of the three lists it can be on, so joining, leaving or moving on a
    list allocates nothing: the replacement chain (one pair of links,
    shared by LRU and SLRU's two segments; private to {!Replacement}),
    the cache's dirty list and the chain of its file's cached blocks
    (both private to {!Cache}). An unlinked block's links point at
    itself.

    A record outlives the block it holds: when a block leaves the cache
    and nothing still reads its record, {!Cache} keeps the record and
    gives it to the next block it caches, through {!reset}. *)
type t = {
  mutable key : Key.t;
  mutable data : Capfs_disk.Data.t;
  mutable state : state;
  times : times;
  mutable access_count : int;   (** for frequency-based replacement *)
  mutable version : int;        (** bumped by every write *)
  mutable in_nvram : bool;
  mutable pinned : int;         (** >0 while an I/O or fill references it *)
  mutable policy_slot : int;
      (** private to the replacement policy (which LRU or SLRU segment
          holds the block, or its slot in a random, LFU or LRU-K pool);
          -1 while the policy does not track it *)
  mutable zombie : bool;
      (** invalidated while a flush snapshot was in flight; the flusher
          discards it on completion *)
  mutable holds : int;
      (** references that will still read the record: flush-job entries
          not yet completed, and reads waiting out their copy delay. A
          record is reused only at 0 *)
  mutable repl_prev : t;
  mutable repl_next : t;
  mutable dirty_prev : t;
  mutable dirty_next : t;
  mutable file_prev : t;
  mutable file_next : t;
}

(** [make ~key ~data ~now] is a clean block on no list, stamped [now]. *)
val make : key:Key.t -> data:Capfs_disk.Data.t -> now:float -> t

(** [reset b ~key ~data ~now] sets every field of [b] to what
    [make ~key ~data ~now] gives, in place: a retired record becomes a
    new block without allocating. *)
val reset : t -> key:Key.t -> data:Capfs_disk.Data.t -> now:float -> unit

(** A block that is never cached: the head of a circular list, whose
    first element is its [next] link and last its [prev]. *)
val sentinel : unit -> t

val ino : t -> int
val index : t -> int
val is_dirty : t -> bool
val evictable : t -> bool
val pin : t -> unit
val unpin : t -> unit
val pp : Format.formatter -> t -> unit
