(** I/O request descriptors.

    "Simulation disk drivers package disk operations in I/O-request data
    structures [containing] all the relevant information for the disk
    simulator … and timing information to measure the performance of the
    I/O operation." The same structure carries real payloads in PFS. *)

type op = Read | Write

type t = {
  id : int;                      (** unique per process, monotonically increasing *)
  op : op;
  lba : int;                     (** first sector *)
  sectors : int;
  mutable data : Data.t option;  (** write payload in; read result out *)
  deadline : float option;       (** absolute time, for scan-EDF *)
  submitted_at : float;
  mutable started_at : float;    (** when the disk began servicing it *)
  mutable completed_at : float;  (** when completion was reported to the host *)
  done_ev : Capfs_sched.Sched.event;
  mutable completed : bool;
  mutable error : Capfs_core.Errno.t option;
      (** set before [completed] when the device reported a failure *)
  mutable fault_retryable : bool;
      (** with [error]: the failure was a transient (injected) one, worth
          retrying; [false] means a hard error *)
  mutable constituents : t list;
      (** for a merged scatter-gather request: the original queued
          requests it subsumes. {!complete} (and {!fail}) propagate the
          outcome — timing, error, retryability, and per-range read data
          slices — to every constituent before waking the parent's own
          waiters. *)
}

(** [make sched op ~lba ~sectors] stamps the submission time from the
    scheduler clock. Raises [Invalid_argument] on a non-positive sector
    count or negative lba. *)
val make :
  Capfs_sched.Sched.t ->
  op ->
  lba:int ->
  sectors:int ->
  ?deadline:float ->
  ?data:Data.t ->
  unit ->
  t

(** Report completion to the host: stamps [completed_at], sets
    [completed], completes any [constituents], wakes every waiter.
    Idempotent. *)
val complete : Capfs_sched.Sched.t -> t -> unit

(** Report failure: records [error], then {!complete}s. Idempotent (a
    request that already completed keeps its first outcome). *)
val fail : Capfs_sched.Sched.t -> t -> Capfs_core.Errno.t -> unit

(** Block until {!complete} has been called (returns at once if already). *)
val await : Capfs_sched.Sched.t -> t -> unit

(** [await_timeout sched t dt] is [true] if the request completed within
    [dt] seconds (or already had), [false] on timeout. *)
val await_timeout : Capfs_sched.Sched.t -> t -> float -> bool

(** Queueing delay: [started_at - submitted_at]. *)
val wait_time : t -> float

(** End-to-end: [completed_at - submitted_at]. *)
val response_time : t -> float

(** Sector one past the end. *)
val last_lba : t -> int

(** One-line rendering (id, op, sector range) for logs and debugging. *)
val pp : Format.formatter -> t -> unit
