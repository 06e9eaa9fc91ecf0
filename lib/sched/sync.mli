(** Synchronization primitives built on scheduler events.

    Mutexes serialize access to shared structures (the cache lists, the
    LFS log tail); semaphores model capacity-limited resources (the
    host/disk connection's single ownership, NVRAM drain slots);
    conditions express "wait until the predicate may have changed". All
    of them work identically under virtual and real clocks. *)

module Mutex : sig
  type t

  val create : ?name:string -> Sched.t -> t

  (** Block until the mutex is free, then take it. Not recursive: a fibre
      locking a mutex it already holds deadlocks. *)
  val lock : t -> unit

  (** [try_lock t] takes the mutex iff it is free; never blocks. *)
  val try_lock : t -> bool

  (** Release; raises [Invalid_argument] if not locked. *)
  val unlock : t -> unit

  val locked : t -> bool

  (** [with_lock t f] runs [f ()] with the mutex held, releasing on any
      exit. *)
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  (** [create sched ~capacity] has [capacity] initial permits. *)
  val create : ?name:string -> Sched.t -> capacity:int -> t

  val release : t -> unit

  val with_permit : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t

  val create : ?name:string -> Sched.t -> t

  (** [wait t m] atomically releases [m], blocks until signalled, then
      re-acquires [m]. *)
  val wait : t -> Mutex.t -> unit

  val signal : t -> unit
  val broadcast : t -> unit
end
