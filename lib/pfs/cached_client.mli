(** The leased client cache: Sprite-style client caching (the paper's
    §3 future work) on the PFS wire protocol.

    The client speaks {!Wire} over a {!transport}: version-checked
    grants, delayed writes for sole holders, write-through under
    concurrent sharing, push-driven invalidation. A repeated read of a
    granted file touches no wire at all; misses for a multi-block read
    go out as {e one} send (one [write(2)] on a socket); dirty blocks go
    home as {e one} {!Wire.request.Writeback} frame at close or lease
    expiry.

    Consistency contract (close-to-open, Sprite's rules):
    - An {!open_} asks for a grant; a version newer than the cached one
      drops every stale block.
    - A pushed [Invalidate] carries the path's version and
      cacheability as the server has them now. One that revokes
      caching flushes delayed writes, drops the cache for that path and
      turns the handle write-through; one with a newer version drops
      the stale blocks the same way; one that restores caching turns
      the handle cacheable again on the spot. After a drop or a
      restoration the handle's size is unknown (a revoked writer's
      Writeback commits data without a newer version), and the next
      read learns it with a [Stat] in the same send as its block
      fetches; until then writes go through. A push older than the
      handle's version is ignored.
      Pushes are acted on before every operation
      ({!transport.t_recv} [~block:false] drain) and whenever one
      surfaces while waiting for a reply.
    - An in-flight fetch that races an invalidation is {e served} to
      the caller (the read was issued first) but {e not cached} — the
      per-handle epoch guard.
    - There is no synchronous recall: a writer's delayed writes reach
      the server at its next operation, close or lease expiry. A
      reader that opens {e before} the writes invalidates the writer,
      which flushes and goes write-through, so the reader sees each
      write as it happens.
    - A handle keeps every block it has read or written until close or
      invalidation; there is no block bound. {!close_} drops the
      blocks, so a re-open starts cold.
    - Leases are enforced here, not at the server: when the grant's
      [lease_s] lapses, local service stops until a flush + renewal
      round trip succeeds. A write-through handle renews too, but it
      does not wait for that to cache again: the server pushes the
      restoration the moment write sharing ends (the last writer
      closes, downgrades to read-only or hangs up).

    The client is single-threaded: one fibre (or the test harness)
    drives it. It runs unchanged over a real socket
    ({!socket_transport}), an in-process virtual-clock server
    ({!virtual_transport}) and a simulated Ethernet ({!over_link}) —
    the cut-and-paste claim, applied to the client half of the
    protocol. *)

type t

(** How frames move. [t_send] delivers a burst of frames — a socket
    transport lays them back to back and sends them with one
    [write(2)]; they stay plain frames, one framing on the wire.
    [t_recv ~block:false]
    polls (Ok [None] = nothing now); [~block:true] waits for the next
    frame and treats EOF as [Error EIO]. [t_now] is the clock leases
    are measured against. *)
type transport = {
  t_send : Capfs_ccache.Netlink.Frame.t list -> (unit, Capfs_core.Errno.t) result;
  t_recv :
    block:bool ->
    (Capfs_ccache.Netlink.Frame.t option, Capfs_core.Errno.t) result;
  t_now : unit -> float;
  t_close : unit -> unit;
}

(** [create ~client tr] — a cache speaking as client id [client].
    Distinct clients on one server must use distinct ids. *)
val create : client:int -> transport -> t

(** [open_ t path mode] sends {!Wire.request.Open_grant} and installs
    (or refreshes) the handle from the reply's grant. Re-opening an
    open handle (a renewal or a mode change) first sends its delayed
    writes home. *)
val open_ :
  t -> string -> Capfs.Client.open_mode -> (unit, Capfs_core.Errno.t) result

(** [read t path ~offset ~count] — cached, short at EOF. Present blocks
    are served locally (zero wire traffic); missing blocks are fetched
    in one batched send. When the size is unknown, that send fetches
    the blocks the last known size puts under the read (at least the
    first), and a second send any the [Stat]'s size adds. Uncacheable
    handles pass straight through. *)
val read :
  t -> string -> offset:int -> count:int -> (string, Capfs_core.Errno.t) result

(** [write t path ~offset data] — delayed write into local blocks
    (read-modify-write for partial blocks) on a cacheable handle;
    write-through otherwise. [EBADF] on a read-only handle. *)
val write :
  t -> string -> offset:int -> data:string -> (unit, Capfs_core.Errno.t) result

(** Flush dirty blocks home ({!Wire.request.Writeback} with the close
    flag) and drop the handle. *)
val close_ : t -> string -> (unit, Capfs_core.Errno.t) result

val mkdir : t -> string -> (unit, Capfs_core.Errno.t) result

(** Drops any cached state for [path] (dirty blocks are discarded)
    and, when [path] is open, sends [Close] before [Delete] so the
    server releases this client's grant and volume open. *)
val delete : t -> string -> (unit, Capfs_core.Errno.t) result

val stat : t -> string -> (Wire.stat, Capfs_core.Errno.t) result
val sync : t -> (unit, Capfs_core.Errno.t) result

(** Close every handle (flushing), then the transport. Idempotent. *)
val disconnect : t -> unit

(** {2 Counters} *)

val local_hits : t -> int
(** block reads served without touching the wire *)

val remote_misses : t -> int
(** block reads (or uncacheable passthroughs) that went to the server *)

val invalidations : t -> int
(** pushed [Invalidate] frames that revoked caching or dropped blocks
    (a restoration alone does not count) *)

val msgs_sent : t -> int
(** wire messages issued *)

val wire_sends : t -> int
(** transport sends — [msgs_sent / wire_sends] is the batching factor *)

val cached_blocks : t -> int
val dirty_blocks : t -> int

(** {2 Transports} *)

(** [socket_transport fd] — a connected stream socket to
    {!Server.serve}. The fd stays blocking; the non-blocking poll is a
    zero-timeout [select]. A multi-frame send is laid back to back in a
    reusable gather buffer and leaves in one [write(2)]; receives
    {!Capfs_ccache.Netlink.Frame.Splitter.fill} one [read(2)] straight
    into the splitter's buffer. Closing the transport closes [fd]. *)
val socket_transport : Unix.file_descr -> transport

(** [virtual_transport server ~client] — the same client state machine
    against an in-process [`Virtual]-clock {!Server}: sends decode and
    {!Server.submit}; receives {!Server.drive} the shards and drain
    completions; pushes arrive via {!Server.register_pusher}. [now]
    (default: constant 0, leases never lapse) lets a test drive lease
    expiry deterministically. Closing the transport is a hang-up:
    {!Server.drop_client} forgets the pusher and releases every grant
    the client still held. *)
val virtual_transport :
  ?now:(unit -> float) -> Server.t -> client:int -> transport

(** [over_link net tr] — [tr] with every frame charged to the simulated
    link [net]: each frame handed to [t_send] costs one
    {!Capfs_ccache.Netlink.transfer} of its payload before it is sent,
    each frame [t_recv] returns costs one after it arrives, and a poll
    that finds nothing costs nothing. [t_now] is the link's virtual
    clock ({!Capfs_ccache.Netlink.now}), so leases lapse in simulated
    time. The caller must run in a fibre of the link's scheduler:
    [transfer] blocks that fibre. The link clock measures network time
    only — a wrapped {!virtual_transport}'s server work runs on the
    shards' own clocks and is not charged here. *)
val over_link : Capfs_ccache.Netlink.t -> transport -> transport
