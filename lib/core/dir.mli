(** Directory contents.

    Directories are files whose data blocks hold a serialized entry
    list, so directory reads and updates move through the block cache
    and cost I/O like any other file. The namespace layer keeps an
    authoritative in-core mirror (the simulator cannot re-parse entries
    from a disk that stores no bytes; see {!Namespace}), but every
    mutation is written through this module so a real image remounts. *)

type entry = {
  name : string;
  entry_ino : int;
  kind : Capfs_layout.Inode.kind;
}

(** [load file] reads and parses the whole directory; an unreadable
    (simulated) payload yields [None] — the caller falls back to its
    in-core mirror. *)
val load : File.t -> entry list option

(** [store file entries] rewrites the directory's contents. *)
val store : File.t -> entry list -> unit
