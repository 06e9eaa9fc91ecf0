(** Real disk back end over a Unix file.

    The paper's only real disk-driver "uses a Unix-file (ordinary file,
    or raw-device) as back-end"; this transport is that back end. It
    plugs into the very same {!Capfs_disk.Driver} (queue + C-LOOK
    scheduling) the simulator uses — cut-and-paste: only the transport
    differs between Patsy and PFS. *)

(** [transport sched ~path ~size_bytes ()] opens (creating and extending
    as needed) [path] and serves sector reads/writes with real pread/
    pwrite. [sector_bytes] defaults to 512. The file is extended to
    [size_bytes] on creation. *)
val transport :
  ?sector_bytes:int ->
  Capfs_sched.Sched.t ->
  path:string ->
  size_bytes:int ->
  unit ->
  Capfs_disk.Driver.transport

(** Close the file descriptor behind a transport created here — its
    own, even when another transport has the same [path] open.
    Idempotent. *)
val close : Capfs_disk.Driver.transport -> unit
