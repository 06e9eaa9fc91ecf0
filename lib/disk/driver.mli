(** Disk drivers: a scheduled I/O queue in front of a transport.

    "Disk-drivers implement one or more disk queues and send new
    operations to disks whenever they are ready to service new requests."
    The driver is the same component in both instantiations; only the
    {!transport} behind it changes — the paper's "simulated disk-drivers
    have exactly the same interface as a real disk-driver: the
    differences are in the internal implementation".

    A driver owns a queue-scheduling policy (default C-LOOK, as in the
    paper) and a service fibre that executes one request at a time
    through the transport. Statistics: [<name>.queue_len] (sampled at
    every submit), [<name>.wait] (queueing delay), [<name>.response]
    (end-to-end). *)

(** What the driver drives. [execute] services one request to completion,
    blocking the calling fibre for however long that takes, and must call
    [Iorequest.complete] (the driver completes it defensively anyway).
    [current_cylinder] feeds the queue policy. [close] releases what the
    transport holds (a real device's descriptor); it is idempotent and
    a no-op for the simulated and RAM transports. *)
type transport = {
  t_name : string;
  sector_bytes : int;
  total_sectors : int;
  execute : queue_empty:(unit -> bool) -> Iorequest.t -> unit;
  current_cylinder : unit -> int;
  close : unit -> unit;
}

(** [sim_transport disk] drives a {!Sim_disk}. *)
val sim_transport : Sim_disk.t -> transport

(** [mem_transport ?latency ~sector_bytes ~total_sectors ()] is a RAM
    disk holding real bytes, servicing every request in [latency]
    (default 0) seconds — for unit tests and as a trivially fast device
    baseline. *)
val mem_transport :
  ?latency:float ->
  sector_bytes:int ->
  total_sectors:int ->
  Capfs_sched.Sched.t ->
  unit ->
  transport

type t

(** [create sched transport] starts the service fibre (a daemon).
    [policy] defaults to C-LOOK over a flat geometry derived from the
    transport when the transport has no geometry of its own.

    Coalescing: with [coalesce] (default [false]), the service fibre
    merges queued same-operation requests that abut or overlap the
    elected request into one scatter-gather request of at most
    [max_merge_sectors] sectors (default 1024). All merged waiters
    complete — or fail — together with the physical request; reads are
    sliced back per constituent. Each merge records the constituent
    count under [<name>.merged] and the span under [<name>.merge_span],
    and emits a [Disk_merge] trace event. With [coalesce] off the
    service order and timing are bit-identical to a build without this
    feature.

    Failure handling: the scheduler's fault injector
    ({!Capfs_fault.Injector}) is consulted once per physical (possibly
    merged) request at service time, so every merged waiter observes the
    same typed outcome. Transient errors and timeouts are absorbed by
    retrying up to [max_retries] times (default 3) with exponential
    backoff starting at [retry_backoff] seconds (default 2 ms: 2, 4,
    8 ms …); hard errors — latent sectors, device-reported failures —
    escalate immediately as [Error EIO]. [timeout] (default: wait
    forever) bounds how long one attempt may take before it is abandoned
    with [ETIMEDOUT]; a whole-disk stall longer than [timeout] costs the
    host [timeout] per attempt while the device sits out the stall.
    Statistics: [<name>.retries] and [<name>.io_errors] alongside the
    queue counters. *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  ?policy:Iosched.t ->
  ?coalesce:bool ->
  ?max_merge_sectors:int ->
  ?max_retries:int ->
  ?retry_backoff:float ->
  ?timeout:float ->
  Capfs_sched.Sched.t ->
  transport ->
  t

(** The name given at creation (default ["driver"]); prefixes the
    driver's statistics and trace events. *)
val name : t -> string

(** The transport's sector size in bytes. *)
val sector_bytes : t -> int

(** The transport's capacity in sectors. *)
val total_sectors : t -> int

(** Asynchronous submission; completion is signalled on the request. *)
val submit : t -> Iorequest.t -> unit

(** Blocking read of [sectors] sectors at [lba]. [Error EIO] after an
    unabsorbed device fault, [Error ETIMEDOUT] when every attempt
    exceeded the driver's [timeout]. *)
val read : t -> lba:int -> sectors:int -> (Data.t, Capfs_core.Errno.t) result

(** Blocking write. The payload length must be a multiple of the sector
    size; the sector count is derived from it. Errors as {!read}. *)
val write :
  t -> ?deadline:float -> lba:int -> Data.t -> (unit, Capfs_core.Errno.t) result

(** {!read} raising {!Capfs_core.Errno.Error} — for callers inside an
    {!Capfs_core.Errno.catch} boundary, and for tests. *)
val read_exn : t -> lba:int -> sectors:int -> Data.t

(** {!write} raising {!Capfs_core.Errno.Error}. *)
val write_exn : t -> ?deadline:float -> lba:int -> Data.t -> unit

(** Block until the queue is empty and the device idle. *)
val drain : t -> unit

(** {2 Failure accounting} — cumulative since creation. *)

(** Attempts re-submitted after a transient fault or timeout. *)
val retries : t -> int

(** Attempts abandoned because they exceeded the driver's [timeout]. *)
val timeouts : t -> int

(** Requests that ultimately failed (escalated to the caller). *)
val io_errors : t -> int

(** Scatter-gather merges performed by the service fibre (each merge
    subsumes two or more queued requests). *)
val merges : t -> int
