(** Simulated client/server network links.

    PFS speaks NFS over a network; to "simulate client/server interaction
    and client cache performance" (§3) the framework needs the wire too.
    A link charges each message a fixed per-RPC latency plus payload
    serialization time, and models half-duplex contention: concurrent
    senders share the medium (10 Mbit/s Ethernet of the era). *)

(** One shared medium. The link is a mutex around a time charge: a
    message holds the medium for [latency + wire_bytes / bandwidth]
    scheduler seconds, so concurrent senders queue — half-duplex
    Ethernet without collisions (the retry behaviour of CSMA/CD is
    folded into the fixed latency). *)
type t

(** [ethernet_10 sched] — 10 Mbit/s, 0.5 ms per-message latency: a
    1990s departmental LAN, timed on [sched]'s clock. *)
val ethernet_10 : Capfs_sched.Sched.t -> t

(** The link's clock: [sched]'s current time. *)
val now : t -> float

(** [transfer t ~bytes] blocks the calling fibre for the message's time
    on the (contended) medium. Framing: [bytes] is payload only; a
    fixed 160-byte header — Ethernet + IP + UDP + RPC overhead of an
    NFS-era packet — is added per message, so zero-payload RPCs (open,
    close, callbacks) still pay for a real packet. One [transfer] is
    one message: [Capfs_pfs.Cached_client.over_link] charges one per
    frame each way, so a request/reply exchange costs two. *)
val transfer : t -> bytes:int -> unit

(** Total payload bytes carried so far (both directions, headers
    excluded). *)
val bytes_carried : t -> int

(** Real wire framing — the same module, cut-and-pasted onto an actual
    socket. Where {!transfer} charges simulated seconds for a notional
    packet, [Frame] moves request/reply messages over a Unix file
    descriptor for the multi-client PFS server: a fixed 16-byte header
    (magic, opcode, request id, payload length) followed by the
    payload.

    Concurrency contract: frames from concurrent writers must be
    serialized per connection (the server's one writer fibre per
    connection lays its frames back to back), but {e replies may come
    back in any order}
    — the request id is the correlation key, so one socket can carry
    many interleaved in-flight requests (the load generator pipelines
    on exactly this). *)
module Frame : sig
  type t = { req_id : int; opcode : int; payload : string }

  (** Bytes of the fixed header preceding every payload (16). *)
  val header_bytes : int

  (** Default payload-size cap, 1 MiB: a reader refuses anything larger
      with [EINVAL] before allocating, so a corrupt or hostile length
      field cannot balloon memory. *)
  val default_max_payload : int

  (** [write fd f] sends the frame, looping over short writes ([EINTR]
      restarts; partial writes resume at the cut). On a non-blocking fd,
      [sched] makes [EAGAIN] back off through the scheduler (the fibre
      sleeps, the domain keeps serving); without [sched] it surfaces as
      [Error EAGAIN]. *)
  val write :
    ?sched:Capfs_sched.Sched.t ->
    Unix.file_descr ->
    t ->
    (unit, Capfs_core.Errno.t) result

  (** [read fd] reassembles one frame from a (normally blocking) fd.
      [Ok None] is a clean EOF at a frame boundary; EOF mid-header or
      mid-payload is a torn frame, [Error EIO]. A bad magic number or a
      length outside [0..max_payload] is [Error EINVAL]. *)
  val read :
    ?max_payload:int ->
    Unix.file_descr ->
    (t option, Capfs_core.Errno.t) result

  (** [blit_header b off ~req_id ~opcode ~payload_len] writes the
      16-byte frame header at [b.(off)] — the gather writer lays many
      headers and payloads into one buffer and hands it to
      {!write_bytes} in a single call. *)
  val blit_header :
    Bytes.t -> int -> req_id:int -> opcode:int -> payload_len:int -> unit

  (** [write_bytes fd b ~len] writes [b.(0..len)] with the same
      EINTR/EAGAIN discipline as {!write} and returns the number of
      [write(2)] calls that moved bytes — normally 1, more only when the
      kernel cut the write short. *)
  val write_bytes :
    ?sched:Capfs_sched.Sched.t ->
    Unix.file_descr ->
    Bytes.t ->
    len:int ->
    (int, Capfs_core.Errno.t) result

  (** Incremental frame reassembly in one growable buffer per stream.
      Bytes come in by one [read(2)] straight into the free tail
      ({!Splitter.fill}: the socket server's reader and the cached
      client) or as caller-supplied chunks ({!Splitter.feed}); then
      {!Splitter.pop} (or the copy-free {!Splitter.pop_with}) cuts out
      complete frames until [Ok None]. Protocol errors (bad magic,
      oversized length) are sticky — a desynchronized byte stream has
      no resync point. *)
  module Splitter : sig
    type frame := t
    type t

    val create : ?max_payload:int -> unit -> t

    (** [feed t b off len] appends [b.(off..off+len)] to the pending
        stream. Raises [Invalid_argument] on an out-of-bounds slice. *)
    val feed : t -> Bytes.t -> int -> int -> unit

    (** [fill t fd] is one [read(2)] of [fd] into the buffer's free
        tail, grown first to hold the whole pending frame — whose length
        is checked against [max_payload] before the buffer grows
        ([Error EINVAL], sticky). [`Short]: the kernel had fewer bytes
        than the tail had room for, so a socket is drained for now;
        [`Full]: more may be waiting; [`Eof]: the peer closed. [EINTR]
        restarts; [EAGAIN] and other failures are [Error]. *)
    val fill :
      t -> Unix.file_descr -> ([ `Short | `Full | `Eof ], Capfs_core.Errno.t) result

    (** Next complete frame, [Ok None] when more bytes are needed. *)
    val pop : t -> (frame option, Capfs_core.Errno.t) result

    (** {!pop} without the payload copy: [pop_with t f] hands the next
        complete frame to [f ~req_id ~opcode buf off len], its payload
        the window [buf.(off..off+len)]. The window is valid only during
        the call: the next {!fill} or {!feed} may overwrite it. *)
    val pop_with :
      t ->
      (req_id:int -> opcode:int -> Bytes.t -> int -> int -> 'a) ->
      ('a option, Capfs_core.Errno.t) result
  end
end
