(** The scheduler's timer queue: a binary min-heap keyed on
    [(at, seq)], expiry time first, then insertion sequence.

    Timers are compared inline (as {!Float.compare} then integer
    order), with no closure, and a peek or pop allocates no option.
    Callers give every timer a distinct [seq], which makes [(at, seq)]
    a total order: the pop order is then fixed by the keys alone. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push q ~at ~seq v] adds timer [v] expiring at [at]. *)
val push : 'a t -> at:float -> seq:int -> 'a -> unit

(** Expiry of the first timer. Raises [Invalid_argument] when empty. *)
val top_at : 'a t -> float

(** Remove and return the first timer. Raises [Invalid_argument] when
    empty. *)
val pop : 'a t -> 'a
