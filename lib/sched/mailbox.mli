(** Typed FIFO mailbox with blocking receive.

    Devices in the framework are "modeled by a separate thread of control
    that waits for work to arrive" — a mailbox is that arrival queue: disk
    drivers post I/O requests into the disk thread's mailbox. Unbounded
    by default; with [capacity], senders block while full
    (back-pressure). *)

type 'a t

val create : ?name:string -> ?capacity:int -> Sched.t -> 'a t

(** Enqueue, blocking while at capacity. *)
val send : 'a t -> 'a -> unit

(** [try_send t v] is [false] instead of blocking when full. *)
val try_send : 'a t -> 'a -> bool

(** Dequeue, blocking while empty. *)
val recv : 'a t -> 'a

(** [recv_timeout t dt] is [None] if nothing arrived within [dt]. *)
val recv_timeout : 'a t -> float -> 'a option

(** [try_recv t] never blocks. *)
val try_recv : 'a t -> 'a option

val length : 'a t -> int
val is_empty : 'a t -> bool
