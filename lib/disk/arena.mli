(** A slab arena for block payloads.

    One off-heap bigarray slab, cut into fixed-size cells. {!alloc} hands
    out refcounted {!Data.Slice} views (initial count 1); the cell
    returns to the free list when {!Data.release} drops the count to
    zero — for cache-owned payloads, on eviction or invalidation. The
    slab never moves and the GC never scans it, so payload bytes cause no
    minor-heap traffic and no copying until a real device boundary.

    The arena never blocks: an empty free list (or a request larger than
    a cell) falls back to a plain GC-heap [Data.real] buffer, on which
    retain/release are no-ops. Allocation and free are O(1).

    Ownership rule: the component that called {!alloc}/{!copy_in} owns
    the initial reference. Anything that buffers the payload beyond the
    delivering call retains/releases its own reference; {!Data.sub}
    views are borrows and carry no count. *)

type t

(** [create ~cell_bytes ~cells ()] maps one slab of [cell_bytes * cells]
    bytes. [poison] fills freed cells with [0xDE] — cheap use-after-free
    detection for tests. [shared] guards the free list with a mutex so
    cells may be allocated on one domain and released on another (e.g. a
    read reply filled on one shard's domain and freed by a connection's
    writer fibre on another); refcount handoff must still be published through a
    lock or queue of the caller's own. *)
val create :
  ?poison:bool -> ?shared:bool -> cell_bytes:int -> cells:int -> unit -> t

(** A fresh cell as a [Data.Slice] of [len] (default [cell_bytes])
    bytes, zeroed at arena creation but {e not} re-zeroed on recycle;
    falls back to [Data.real] when the arena is full or [len] exceeds
    [cell_bytes]. *)
val alloc : ?len:int -> t -> Data.t

(** [copy_in t data] is [alloc] + blit: adopt a payload's bytes into an
    arena cell the caller now owns. *)
val copy_in : t -> Data.t -> Data.t

val cell_bytes : t -> int
val capacity : t -> int

(** Cells currently allocated. *)
val live : t -> int

(** Allocations served from the GC heap because the arena was full. *)
val fallbacks : t -> int

(** Cells freed back to the arena over its lifetime. *)
val recycled : t -> int
