(** Doubly-linked list with O(1) removal through node handles.

    The cache's LRU/dirty orderings live on these lists; a block keeps the
    handle of its node so moving it to the hot end or unlinking it on
    eviction costs O(1) — the exact "short-cut in list maintenance" the
    paper found it needed after profiling the simulator (§5.2). *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push_front t v] / [push_back t v] insert and return the handle. *)
val push_front : 'a t -> 'a -> 'a node

val push_back : 'a t -> 'a -> 'a node

(** [remove t node] unlinks the node. Raises [Invalid_argument] when the
    node is not currently linked on [t]. *)
val remove : 'a t -> 'a node -> unit

(** [move_front t node] relinks an existing node at the front. *)
val move_front : 'a t -> 'a node -> unit

val front : 'a t -> 'a option
val back : 'a t -> 'a option
val value : 'a node -> 'a

(** Front-to-back fold. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val iter : ('a -> unit) -> 'a t -> unit

(** [find t p] is the first (front-most) element satisfying [p]. *)
val find : 'a t -> ('a -> bool) -> 'a option

val to_list : 'a t -> 'a list

(** Front-to-back snapshot as a fresh array (no intermediate list). *)
val to_array : 'a t -> 'a array
