(** Hierarchical namespace: path resolution and directory mutation.

    Keeps the authoritative in-core directory mirror and writes every
    change through {!Dir} so the on-disk image stays parseable (PFS) and
    the I/O is charged (Patsy). Symbolic links are followed during
    resolution, up to a fixed depth. *)

exception Not_found_path of string
exception Already_exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Not_empty of string
exception Symlink_loop of string

type t

val create : Fsys.t -> File_table.t -> t

(** [resolve t path] walks the path (following symlinks) to the inode
    number. Raises {!Not_found_path} / {!Not_a_directory} /
    {!Symlink_loop}. *)
val resolve : t -> string -> int

val resolve_opt : t -> string -> int option

(** [entries t dir_ino] lists a directory (readdir). *)
val entries : t -> int -> Dir.entry list

(** [lookup t ~dir ~name] finds one entry without walking a path. *)
val lookup : t -> dir:int -> name:string -> Dir.entry option

(** [add_entry t ~parent ~name ~ino ~kind] inserts a dirent (persisting
    the directory). Raises {!Already_exists}. *)
val add_entry :
  t -> parent:int -> name:string -> ino:int -> kind:Capfs_layout.Inode.kind ->
  unit

(** [remove_entry t ~parent ~name] removes and returns the dirent. *)
val remove_entry : t -> parent:int -> name:string -> Dir.entry

(** [split_parent t path] resolves the dirname to its directory inode
    and returns it with the basename. The root has no parent: raises
    [Capfs_core.Errno.Error EINVAL]. *)
val split_parent : t -> string -> int * string

(** Register / read a symlink target. Targets live in the in-core
    table (authoritative) and in the link's file data (persistence). *)
val set_symlink_target : t -> int -> string -> unit

val symlink_target : t -> int -> string option

(** Normalize a path: leading slash, no trailing slash, no empties. *)
val normalize : string -> string
