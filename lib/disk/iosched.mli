(** Disk-queue scheduling policies.

    "Disk-drivers … can implement disk queue scheduling policies to
    optimize disk I/O queue time (e.g. SCAN, C-SCAN, LOOK, C-LOOK) or
    guarantee real-time delivery of data through algorithms such as
    scan-EDF." A policy owns the pending-request set; the driver asks it
    for the next request to service given the head's current cylinder.

    All policies break ties by submission order, so two requests for the
    same cylinder are served FIFO. *)

type t

(** Policy name as printed in reports. *)
val name : t -> string

(** Enqueue a pending request. *)
val add : t -> Iorequest.t -> unit

(** [next t ~current_cyl] removes and returns the request the policy
    elects to service next, or [None] when idle. *)
val next : t -> current_cyl:int -> Iorequest.t option

(** [take_adjacent t r ~max_sectors] removes and returns (in submission
    order) every queued request of the same operation that abuts or
    overlaps [r]'s sector span — transitively, so a chain of adjacent
    requests is drained in one call — as long as the merged span stays
    within [max_sectors]. Requests with deadlines are never taken (and a
    deadlined [r] takes nothing), keeping scan-EDF semantics intact. The
    driver uses this to build scatter-gather requests. *)
val take_adjacent : t -> Iorequest.t -> max_sectors:int -> Iorequest.t list

(** Pending-request count. *)
val length : t -> int

(** Pending requests, unordered (for statistics and debugging). *)
val pending : t -> Iorequest.t list

(** {2 Constructors} — each takes the geometry used to map sector
    numbers to cylinders. *)

(** First-come first-served. *)
val fcfs : Geometry.t -> t

(** Shortest seek time first (nearest cylinder). Can starve edge
    requests under load — that is the point of comparing it. *)
val sstf : Geometry.t -> t

(** Elevator: keep moving in the current direction, reverse at the last
    pending request. (Classical SCAN sweeps to the physical edge; for
    service-order purposes the two are identical, so SCAN here shares the
    LOOK implementation.) *)
val look : Geometry.t -> t

(** Alias of {!look} — see the note there. *)
val scan : Geometry.t -> t

(** Circular LOOK: service upward only; wrap to the lowest pending
    request when none lie ahead. The default policy of the paper's only
    disk driver. *)
val clook : Geometry.t -> t

(** Earliest deadline first, ties broken in C-LOOK order; requests
    without a deadline sort after all deadlined ones. Reddy & Wyllie's
    scan-EDF for continuous-media traffic. *)
val scan_edf : Geometry.t -> t

(** [by_name geometry s] looks up a policy constructor by (lowercase)
    name: "fcfs", "sstf", "scan", "look", "cscan", "clook", "scan-edf".
    Raises [Invalid_argument] on unknown names. *)
val by_name : Geometry.t -> string -> t

(** Every name {!by_name} accepts, for CLI help and error messages. *)
val known_policies : string list
