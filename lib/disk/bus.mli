(** Host/disk connections (SCSI-2 bus model).

    "Connections are the links between the host and the disk sub-system…
    They also arbitrate if there is more than one controller that wants to
    send data over the same connection, to simulate connection contention
    (e.g. SCSI bus contention)." Devices acquire the bus for each phase
    (command, data, status) and release it in between, modelling SCSI
    disconnect/reconnect: a disk does its seek with the bus free for
    other disks on the same string.

    Transfer time = arbitration + per-phase overhead + bytes / rate. The
    current fibre is delayed by exactly that long while holding the bus. *)

type t

(** [scsi2 sched] is the paper's bus: 10 MB/s synchronous transfer,
    with small arbitration and per-phase overheads. *)
val scsi2 : ?registry:Capfs_stats.Registry.t -> ?name:string ->
  Capfs_sched.Sched.t -> t

(** [create ~rate_bytes_per_sec sched] is a bus with the given raw
    transfer rate; [arbitration] and [phase_overhead] are the fixed
    per-acquisition costs in seconds (both default to 0 — an idealised
    link). Registers its utilisation statistics under
    ["<name>."] when a [registry] is given. *)
val create :
  ?registry:Capfs_stats.Registry.t ->
  ?name:string ->
  rate_bytes_per_sec:float ->
  ?arbitration:float ->
  ?phase_overhead:float ->
  Capfs_sched.Sched.t ->
  t

(** The name given at creation (default ["bus"]); prefixes the bus's
    statistics. *)
val name : t -> string

(** [transfer t ~bytes] waits for bus ownership, holds the bus for the
    arbitration + overhead + transfer time, then releases it. [bytes = 0]
    models a command or status phase (overhead only). *)
val transfer : t -> bytes:int -> unit

(** Seconds the bus has spent busy since creation. *)
val busy_seconds : t -> float
