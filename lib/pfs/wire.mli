(** The PFS request/reply vocabulary and its wire codecs.

    One request type serves three transports: in-process calls
    ({!Server.call}), the socket protocol (a {!Capfs_ccache.Netlink.Frame}
    whose opcode and payload these codecs fill), and the load
    generator. Requests name files by {e path} — the abstract client
    interface's own vocabulary — so routing can hash the first path
    component to a shard before any file-system state is touched. Each
    file-system request maps onto one {!Capfs.Client} call: this is the
    paper's NFS-class mapping onto the abstract client interface.

    {b Routing.} A request goes to the shard its path hashes to
    ({!Server.route}), with three refinements:
    - a [Rename] whose [src] and [dst] route to different shards is
      refused with [Err EXDEV] before any shard sees it;
    - [Readdir "/"] on a multi-shard server asks every shard and
      answers the sorted union of their root entries;
    - a [Symlink] lives on the shard of its [path], and its [target]
      resolves within that shard's namespace.

    Integers are little-endian u32, strings are u16-length-prefixed; a
    write's data rides as the payload tail (the frame header already
    carries its length). A reply's first byte is a status: [0] for
    success, [1 + Errno.to_index e] for failure — the same closed errno
    vocabulary on the wire as in the API. *)

type stat = { size : int; is_dir : bool }

(** What an {!request.Open_grant} reply carries: the {!Lease} table's
    consistency vocabulary on the wire. [version] bumps at every
    write-open; [cacheable] false means concurrent write sharing was
    detected and the client must write through; [lease_s] bounds how
    long local hits may be served without renewing (u32 milliseconds on
    the wire, rounded to the nearest); [size] is the file size at grant
    time. *)
type grant = { version : int; cacheable : bool; lease_s : float; size : int }

type request =
  | Open of { client : int; path : string; mode : Capfs.Client.open_mode }
  | Close of { client : int; path : string }
  | Read of { client : int; path : string; offset : int; count : int }
  | Write of { client : int; path : string; offset : int; data : string }
  | Mkdir of string
  | Delete of string
  | Stat of string
  | Sync  (** flush every shard; replies when the slowest one is stable *)
  | Stats  (** merged per-shard statistics report (JSON payload) *)
  | Shutdown
      (** stop the server. No reply is sent: the client closes after
          writing it, and a clean server exit is the acknowledgement. *)
  | Open_grant of {
      client : int;
      path : string;
      mode : Capfs.Client.open_mode;
    }
      (** [Open] plus a caching contract: the reply is an {!reply.Ok_grant}
          and the server starts pushing {!push.Invalidate} frames for
          this path to the issuing connection. Re-sent by a live holder
          to renew its lease. *)
  | Writeback of {
      client : int;
      path : string;
      size : int;  (** file size after the batch (may truncate) *)
      close : bool;  (** this writeback also closes the handle *)
      blocks : (int * string) list;  (** (byte offset, data), ascending *)
    }
      (** one frame committing every dirty block of one file — the
          delayed-write flush at close or lease expiry. *)
  | Rename of { src : string; dst : string }
      (** replaces an existing [dst] as rename(2) does; [EXDEV] across
          shards *)
  | Readdir of string  (** answered by {!reply.Ok_names} *)
  | Rmdir of string  (** the directory must be empty *)
  | Symlink of { target : string; path : string }
      (** create [path] pointing at [target] *)
  | Readlink of string  (** answered by {!reply.Ok_link} *)
  | Truncate of { path : string; size : int }

type reply =
  | Ok_unit
  | Ok_data of Capfs_disk.Data.t
      (** read payload, possibly short at EOF. Server-side it may share
          bytes with the cache, so nobody writes into it. *)
  | Ok_stat of stat
  | Ok_stats of string  (** the merged JSON report *)
  | Ok_grant of grant  (** reply to [Open_grant] *)
  | Ok_names of string list  (** entry names, sorted: reply to [Readdir] *)
  | Ok_link of string  (** the unexpanded target: reply to [Readlink] *)
  | Err of Capfs_core.Errno.t

(** A server-initiated frame, delivered on the reply path under
    {!push_req_id}. An [Invalidate] tells a holder the path's version
    and cacheability as the lease table has them now, and the server
    sends one whenever either changes for that holder: a write-open or
    a mutation by someone else (a newer version: cached blocks are
    stale), the start of concurrent write sharing ([cacheable = false]:
    flush and go write-through), and its end ([cacheable = true] at the
    current version: cache again, straight away). A holder ignores a
    push older than the version it already has. *)
type push =
  | Invalidate of { path : string; version : int; cacheable : bool }

(** The reserved request id push frames travel under; clients never
    issue ids at or above it. *)
val push_req_id : int

(** Frame opcode of a request; replies echo it. *)
val opcode : request -> int

(** The path a request is routed by ([src] for a [Rename]); [None] for
    the server-level operations ([Sync] fans out to every shard,
    [Stats]/[Shutdown] are answered by the connection's reader
    itself). *)
val route_path : request -> string option

val encode_request : request -> int * string
(** [(opcode, payload)]. *)

(** [decode_request_window ~opcode buf ~off ~len] decodes the payload
    [buf.(off..off+len)] in place — the socket reader's window into its
    receive buffer — and never reads outside it. Strings (paths, a
    [Write]'s data) are copied out, so the request outlives [buf].
    [Error EINVAL] on an unknown opcode or a payload that doesn't parse
    (truncated field, bad open mode); [Invalid_argument] when the window
    is not within [buf]. *)
val decode_request_window :
  opcode:int ->
  Bytes.t ->
  off:int ->
  len:int ->
  (request, Capfs_core.Errno.t) result

(** [decode_request ~opcode payload] is {!decode_request_window} over
    the whole of [payload]. *)
val decode_request :
  opcode:int -> string -> (request, Capfs_core.Errno.t) result

val encode_reply : reply -> string

(** Encoded payload length of a reply — what {!blit_reply} will write. *)
val reply_bytes : reply -> int

(** [blit_reply r b off] lays the encoded reply at [b.(off)]; with
    [Ok_data] the payload moves to [b] in one copy, no intermediate
    string. [b] must have {!reply_bytes}[ r] bytes free at [off]. *)
val blit_reply : reply -> Bytes.t -> int -> unit

(** Replies are decoded under the request's echoed [opcode] — the
    status byte says whether it's an error, the opcode says which
    success shape follows. *)
val decode_reply :
  opcode:int -> string -> (reply, Capfs_core.Errno.t) result

val encode_push : push -> int * string
(** [(opcode, payload)]. *)

val decode_push : opcode:int -> string -> (push, Capfs_core.Errno.t) result

val pp_reply : Format.formatter -> reply -> unit
