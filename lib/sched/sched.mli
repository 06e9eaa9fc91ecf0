(** Cooperative thread scheduler with virtual or real time.

    This is the paper's central trick made concrete: every component in the
    framework blocks and sleeps through this scheduler, and the scheduler is
    instantiated either with a {e virtual} clock — time jumps to the next
    timer when no thread is runnable, giving a discrete-event simulator
    (Patsy) — or with a {e real} clock, where timers expire in wall-clock
    time and external file-descriptor events are dispatched (PFS). The
    file-system code in between is byte-for-byte identical.

    Threads are one-shot effect-handler fibres: [spawn] registers a fibre,
    [run] dispatches fibres until no non-daemon fibre remains. All blocking
    operations ([yield], [sleep], [await], …) must be called from inside a
    fibre; calling them outside [run] raises [Effect.Unhandled].

    As in the paper, the default dispatch policy picks a {e random} runnable
    thread, which shakes out ordering assumptions in policies before they
    reach the real system; a FIFO policy is available for debugging. *)

type t

type clock = [ `Virtual  (** discrete-event time; simulator *)
             | `Real     (** wall-clock time; on-line system *) ]

type policy = [ `Random | `Fifo ]

(** Blocking wake-up channel (the paper's "synchronization primitive based
    on events"). A [signal] with no waiter is remembered and satisfies the
    next [await], so drivers never lose completions. *)
type event

type thread_id = int

(** Raised by [run] when no thread is runnable, no timer is pending, yet
    non-daemon threads are still blocked. Carries their names. *)
exception Deadlock of string list

(** Raised by blocking operations when the scheduler has been stopped. *)
exception Stopped

(** [create ~clock ()] builds a scheduler. [tracer] (default
    {!Capfs_obs.Tracer.null}, i.e. off) receives a structured event for
    every fibre dispatch, block and wake; components built on this
    scheduler (cache, disk driver, layouts) emit their own events
    through the same tracer, so one flight recorder covers the whole
    instantiation. *)
val create :
  ?seed:int ->
  ?policy:policy ->
  ?tracer:Capfs_obs.Tracer.t ->
  ?injector:Capfs_fault.Injector.t ->
  clock:clock ->
  unit ->
  t

val clock : t -> clock

(** The scheduler's event tracer ({!Capfs_obs.Tracer.null} when tracing
    is off). Instrumented components guard emissions with
    [Tracer.enabled (Sched.tracer sched)]. *)
val tracer : t -> Capfs_obs.Tracer.t

(** The scheduler's fault injector ({!Capfs_fault.Injector.null}, i.e.
    off, by default). Carried here for the same reason as the tracer:
    every component of an instantiation sees one fault schedule without
    any of them depending on the injection library's wiring. *)
val injector : t -> Capfs_fault.Injector.t

(** Current time in seconds: virtual-time offset (simulator) or elapsed
    wall-clock since [run] started (real). Starts at [0.]. *)
val now : t -> float

(** [spawn t f] registers a fibre. [daemon] fibres (device service loops,
    background flushers) do not keep [run] alive. Fibres may spawn further
    fibres. Returns the new thread's id. *)
val spawn : ?name:string -> ?daemon:bool -> t -> (unit -> unit) -> thread_id

(** Dispatch until every non-daemon fibre has finished (or [until] virtual/
    elapsed seconds have passed, when given). Re-raises the first uncaught
    fibre exception after the loop winds down. Not reentrant. *)
val run : ?until:float -> t -> unit

(** Ask the run loop to exit after the current fibre suspends. *)
val stop : t -> unit

(** {2 Operations available inside fibres} *)

(** Give other runnable fibres a chance. *)
val yield : t -> unit

(** Block for [dt] seconds of scheduler time. [dt <= 0] is a [yield]. *)
val sleep : t -> float -> unit

val new_event : ?name:string -> t -> event

(** Block until the event is signalled (or consume a pending signal). *)
val await : t -> event -> unit

(** [await_timeout t ev dt] is [true] if signalled within [dt] seconds,
    [false] on timeout. *)
val await_timeout : t -> event -> float -> bool

(** Wake one waiter, or remember the signal if none is waiting. *)
val signal : t -> event -> unit

(** Wake every current waiter; remembers nothing. *)
val broadcast : t -> event -> unit

(** Number of fibres currently waiting on the event. *)
val waiters : t -> event -> int

(** [wait_readable t fd] blocks the fibre until [fd] is readable. Only
    available under the [`Real] clock (the paper: "external events are
    managed by the scheduler when it is configured in a real system");
    raises [Invalid_argument] under [`Virtual]. *)
val wait_readable : t -> Unix.file_descr -> unit
