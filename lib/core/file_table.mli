(** The global table of instantiated files.

    "Once the file is in memory, the component stores a reference to it
    in a global file table" — one {!File.t} per in-core inode, shared by
    every client. Files unlinked while open stay alive (Unix semantics)
    until their last close, then their blocks and inode are freed. *)

type t

val create : Fsys.t -> t

(** [get t ino] returns the instantiated file, loading the inode from
    the layout on first touch; [None] if the inode does not exist. *)
val get : t -> int -> File.t option

(** [create_file t ~kind] allocates a fresh inode and instantiates it. *)
val create_file : t -> kind:Capfs_layout.Inode.kind -> File.t

(** Marks the file as unlinked; actual freeing happens when the open
    count drops to zero (or immediately if it already is). *)
val unlink : t -> int -> unit

(** To be called after every [File.closed]: reaps unlinked files whose
    open count reached zero. *)
val maybe_reap : t -> int -> unit

(** Number of in-core files (diagnostics). *)
val loaded : t -> int
