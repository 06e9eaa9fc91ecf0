(** The abstract client interface.

    "The abstract client interface provides the basic file-system
    interface. There are functions to open, close, read, write or delete
    a file and there are functions to manipulate an hierarchical
    name-space." Both front ends dispatch onto this module: the NFS
    class in PFS and the trace-replay classes in Patsy.

    Operations identify files by path; [open_]/[close_] maintain a
    per-(client, path) descriptor so traces replay naturally. Reads and
    writes against a path that is not open perform an implicit transient
    open — real traces occasionally miss the open record.

    {b Errors.} Every operation returns [('a, Capfs_core.Errno.t) result].
    Path-walking failures map onto the usual codes ([ENOENT], [EEXIST],
    [ENOTDIR], [EISDIR], [ENOTEMPTY], [ELOOP]); closing a handle that
    was never opened is [EBADF]; layout and disk failures pass through
    as [ENOSPC]/[EIO]/[ETIMEDOUT]. Each operation also has an [_exn]
    twin that raises {!Capfs_core.Errno.Error} instead — convenient in
    tests and setup code where failure is fatal anyway. *)

type t

type stat = {
  st_ino : int;
  st_kind : Capfs_layout.Inode.kind;
  st_size : int;
  st_nlink : int;
  st_mtime : float;
  st_atime : float;
}

type open_mode = RO | WO | RW

val create : Fsys.t -> t
val fsys : t -> Fsys.t

(** Underlying components, for front ends that need them. *)
val file_table : t -> File_table.t

val namespace : t -> Namespace.t

(** [trap f] runs [f] and converts the errors this module's operations
    can raise — the {!Namespace} exceptions and
    {!Capfs_core.Errno.Error} — into an [Error] result. Front ends that
    drive {!Namespace}/{!File} directly (e.g. the NFS server) use it to
    share the one exception-to-errno mapping. Unrecognised exceptions
    propagate. *)
val trap : (unit -> 'a) -> ('a, Capfs_core.Errno.t) result

(** {2 Namespace operations} *)

val mkdir : t -> string -> (unit, Capfs_core.Errno.t) result
val rmdir : t -> string -> (unit, Capfs_core.Errno.t) result

(** [create_file t ?kind path] creates an empty file (exclusive). *)
val create_file :
  t -> ?kind:Capfs_layout.Inode.kind -> string ->
  (unit, Capfs_core.Errno.t) result

val symlink : t -> target:string -> string -> (unit, Capfs_core.Errno.t) result

(** [EINVAL] if [path] names something that is not a symlink. *)
val readlink : t -> string -> (string, Capfs_core.Errno.t) result

val rename :
  t -> src:string -> dst:string -> (unit, Capfs_core.Errno.t) result

(** Unlink. Open files live on until their last close. *)
val delete : t -> string -> (unit, Capfs_core.Errno.t) result

val readdir : t -> string -> (Dir.entry list, Capfs_core.Errno.t) result
val stat : t -> string -> (stat, Capfs_core.Errno.t) result
val exists : t -> string -> bool

(** [ensure_dirs t path] creates every missing directory on the way to
    [path]'s parent (mkdir -p for the dirname). *)
val ensure_dirs : t -> string -> (unit, Capfs_core.Errno.t) result

(** Simulator aid ("we synthesize those parameters that are missing,
    e.g. … the initial layout of the file-system"): make sure [path]
    exists with at least [size] bytes whose blocks are already "on
    disk" — adopted by the layout at no simulated cost, so subsequent
    reads pay real disk time. Creates missing parents. *)
val synthesize_file :
  t -> ?kind:Capfs_layout.Inode.kind -> string -> size:int ->
  (unit, Capfs_core.Errno.t) result

(** {2 File I/O} *)

(** [open_ t ~client path mode] opens (creating on [WO]/[RW] if
    absent). *)
val open_ :
  t -> client:int -> string -> open_mode -> (unit, Capfs_core.Errno.t) result

(** [EBADF] if the client holds no descriptor for [path]. *)
val close_ : t -> client:int -> string -> (unit, Capfs_core.Errno.t) result

(** [read t ~client path ~offset ~bytes] returns the data read (short
    at EOF). *)
val read :
  t -> client:int -> string -> offset:int -> bytes:int ->
  (Capfs_disk.Data.t, Capfs_core.Errno.t) result

(** [read_into t ~client path arena ~offset ~bytes] is {!read} with each
    block's piece copied into its own [arena] cell as it is fetched
    ({!File.read_into}); the caller owns the result and releases it. *)
val read_into :
  t -> client:int -> string -> Capfs_disk.Arena.t -> offset:int ->
  bytes:int -> (Capfs_disk.Data.t, Capfs_core.Errno.t) result

val write :
  t -> client:int -> string -> offset:int -> Capfs_disk.Data.t ->
  (unit, Capfs_core.Errno.t) result

val truncate : t -> string -> size:int -> (unit, Capfs_core.Errno.t) result

(** fsync: the file's dirty blocks reach stable storage. *)
val fsync : t -> string -> (unit, Capfs_core.Errno.t) result

(** Whole-system sync: cache write-back plus layout checkpoint. *)
val sync : t -> (unit, Capfs_core.Errno.t) result

(** Close every descriptor a client still holds (end-of-trace tidy-up). *)
val close_all : t -> client:int -> (unit, Capfs_core.Errno.t) result

(** Open-descriptor count (diagnostics). *)
val open_handles : t -> int

(** {2 Raising conveniences}

    Each mirrors its result-typed namesake but raises
    {!Capfs_core.Errno.Error} on failure. *)

val mkdir_exn : t -> string -> unit
val rmdir_exn : t -> string -> unit
val create_file_exn : t -> ?kind:Capfs_layout.Inode.kind -> string -> unit
val symlink_exn : t -> target:string -> string -> unit
val readlink_exn : t -> string -> string
val rename_exn : t -> src:string -> dst:string -> unit
val delete_exn : t -> string -> unit
val readdir_exn : t -> string -> Dir.entry list
val stat_exn : t -> string -> stat
val ensure_dirs_exn : t -> string -> unit

val synthesize_file_exn :
  t -> ?kind:Capfs_layout.Inode.kind -> string -> size:int -> unit

val open_exn : t -> client:int -> string -> open_mode -> unit
val close_exn : t -> client:int -> string -> unit

val read_exn :
  t -> client:int -> string -> offset:int -> bytes:int -> Capfs_disk.Data.t

val write_exn :
  t -> client:int -> string -> offset:int -> Capfs_disk.Data.t -> unit

val truncate_exn : t -> string -> size:int -> unit
val fsync_exn : t -> string -> unit
val sync_exn : t -> unit
val close_all_exn : t -> client:int -> unit
