(** Scale-out PFS: one server, many volumes, many clients.

    The namespace is sharded by hashing a path's first component onto
    [shards] independent PFS volumes ({!Pfs.create} each, so every
    shard has its own scheduler, cache, LFS and backing image —
    [<image>.shard<i>]). Under the [`Real] clock each shard runs on its
    own OCaml 5 domain, and that domain's one scheduler runs the whole
    life of its requests: the socket connections {!serve} dealt to it,
    the requests it serves, their replies. A request for the caller's
    own shard runs in place; only work that crosses domains — a request
    for another shard, a reply or push owed to another domain's
    connection — goes through the target domain's inbox and wakes it
    through a self-pipe. Under [`Virtual] there are no domains: every
    request goes through an inbox and the caller pumps with {!drive}.
    The request execution path — admission, routing, the abstract
    client interface, the multiplexed volume layer, the driver — is the
    same code under both clocks; only the wake-up mechanism differs.
    Each {!Wire} request runs as one {!Capfs.Client} call on its shard.

    {b Admission.} Each shard bounds its in-flight requests at
    [Config.admission]; a full (or stopping) shard refuses at {!submit}
    time with a typed [EAGAIN] — the client-visible pushback. Counted
    per shard under [server.submitted] / [server.rejected] /
    [server.completed]. *)

type t

(** [create cfg] builds [cfg.shards] volumes (validating first) and,
    under the [`Real] clock, starts one service domain per shard. A
    failure tears down the volumes already built. [injector] is
    threaded into every shard's scheduler. *)
val create :
  ?injector:Capfs_fault.Injector.t ->
  Pfs.Config.t ->
  (t, Capfs_core.Errno.t) result

val shards : t -> int

(** [route t path] — the shard index [path] lives on: FNV-1a of the
    first path component, mod [shards]. Stable across runs, restarts
    and processes. *)
val route : t -> string -> int

(** [submit t req ~complete] — admission check, then hand [req] to its
    shard: spawned right here when the caller runs on that shard's
    domain, else through the shard's inbox. [complete] fires {e on the
    shard's domain} once (out of order with other submissions).
    [Error EAGAIN] when the target shard
    is full or stopping; [Error EXDEV] for a [Rename] across shards,
    before any shard does work. A [Sync], and a [Readdir "/"] on more
    than one shard, fan out to every shard and complete once with the
    first per-shard error or else the merged answer; [Stats]/[Shutdown]
    are server-level and answer [Error EINVAL] here. *)
val submit :
  t ->
  Wire.request ->
  complete:(Wire.reply -> unit) ->
  (unit, Capfs_core.Errno.t) result

(** Pump a [`Virtual]-clock server until quiescent: drain every shard's
    inbox, run its scheduler, repeat while anything moved. Raises
    [Invalid_argument] on a real-clock server (its shards pump
    themselves). *)
val drive : t -> unit

(** [register_pusher t ~client sink] names [sink] as client [client]'s
    push channel: every {!Wire.push} the server owes that client (cache
    invalidations) is handed to it. Fires on the domain of whichever
    shard made the push, mid-request — a sink must only enqueue. {!serve}
    registers a connection automatically at its first [Open_grant]; its
    sink queues the push on the connection's own domain, directly when
    the push is made there, else through that domain's inbox. This
    entry point exists for in-process transports (the virtual-clock
    {!Cached_client}). *)
val register_pusher : t -> client:int -> (Wire.push -> unit) -> unit

(** [drop_client t ~client] — client [client] is gone: its push channel
    is forgotten and every grant it held released, and where that ends
    write sharing the holders left are pushed the restoration. {!serve}
    does this when a connection hangs up, for every client that
    registered on it; in-process transports call it at close. *)
val drop_client : t -> client:int -> unit

(** [call t req] — submit and wait for the reply (driving the shards
    first under [`Virtual]); admission pushback comes back as
    [Err EAGAIN]. [Stats] answers immediately with {!report_json},
    printed by {!Capfs_stats.Json.to_string}; [Shutdown] is refused
    ([Err EINVAL]) — in-process callers use {!shutdown}. *)
val call : t -> Wire.request -> Wire.reply

(** Per-shard statistics snapshots, index order. *)
val snapshots : t -> Capfs_stats.Snapshot.t array

(** Every shard's snapshot merged into one: counts and totals summed by
    key, means recomputed. *)
val merged : t -> Capfs_stats.Snapshot.t

(** The statistics report, as the [Stats] reply and [pfs serve]'s
    stats file print it: [shards], [per_shard] (each [{index, stats}]
    with that shard's {!Capfs_stats.Snapshot.to_json}), the merged
    [totals], and the socket counters under [wire] (keys from
    {!Capfs_stats.Names.wire}). *)
val report_json : t -> Capfs_stats.Json.t

(** Stop accepting ([EAGAIN]), drain in-flight requests, sync and close
    every volume, join the domains. Idempotent. *)
val shutdown : t -> unit

(** [serve t lfd] — the multi-client front door: accept connections
    from the listening socket [lfd] (already bound and listening; Unix
    or TCP), speak {!Capfs_ccache.Netlink.Frame} framing with
    {!Wire} payloads, and pipeline out-of-order replies per connection.
    It runs no scheduler of its own: an accept fibre on shard 0's
    scheduler deals connections round-robin to the shard domains, and
    a connection's descriptor is closed as soon as its peer hangs up.
    A connection moves each burst with one [read(2)] into its receive
    buffer — every complete request in it decoded in place — and one
    [write(2)] of up to 64 pending replies laid back to back as plain
    frames. A bad magic, an oversized length or EOF mid-frame closes
    only that connection.
    Blocks until a client sends [Shutdown] (which gets no reply), then
    drains — replies to requests still in flight are written — shuts
    the server down and returns; the caller's clean exit is the
    acknowledgement. Requires a [`Real]-clock server.

    [serve] sets [SIGPIPE] to ignored for the whole process: a client
    that hangs up with replies still owed then makes the reply's write
    fail with [EPIPE], which closes only that connection. *)
val serve : t -> Unix.file_descr -> unit
