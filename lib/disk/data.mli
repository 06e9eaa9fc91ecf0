(** Data payloads: real bytes, simulated placeholders, slab slices, or
    gather lists.

    "The difference between a simulated cache and a real cache is the lack
    of a data pointer in the simulated case." A [Data.t] is either a real
    byte buffer (PFS), just a length (Patsy), an off-heap view into an
    {!Arena} slab, or a scatter-gather list of any of these (a merged I/O
    request carrying several waiters' buffers as one transfer). All
    framework code moves [Data.t] values around; only the PFS helper
    components ever look inside. The simulator charges memory-copy time
    through {!copy_seconds}, so moving fake data still costs simulated
    time. *)

(** An off-heap slab: a char bigarray the GC never scans or moves. *)
type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t =
  | Real of bytes
  | Sim of int  (** length in bytes, no backing store *)
  | Gather of gather
      (** scatter-gather list; always >= 2 segments, at least one real *)
  | Slice of slice
      (** an [off, off+len) window of a slab; arena-backed when [s_cell]
          is set, in which case {!retain}/{!release} govern its life *)

and gather = {
  g_total : int;  (** total length in bytes *)
  g_segs : (int * t) list;
      (** (offset, segment) sorted ascending, abutting, covering
          [0, g_total); segments are [Real], [Sim] or [Slice], never
          nested *)
}

and slice = { s_buf : buf; s_off : int; s_len : int; s_cell : cell option }

and cell = {
  c_slot : int;  (** the owning arena's slot index *)
  mutable c_rc : int;
  c_free : cell -> unit;  (** installed by the arena; runs at rc = 0 *)
}

(** [real n] is a zero-filled real buffer of [n] bytes. *)
val real : int -> t

(** [sim n] is a simulated payload of [n] bytes. *)
val sim : int -> t

(** [of_string s] is a real payload holding [s]. *)
val of_string : string -> t

(** [gather ts] lays the payloads end to end as one scatter-gather value
    without copying — the result {e aliases} the segment buffers, so it
    must be consumed before the sources are mutated. Nested gathers are
    flattened; degenerate inputs normalise to [Sim]/the sole segment, so
    an all-simulated gather costs nothing. *)
val gather : t list -> t

(** Payload length in bytes. *)
val length : t -> int

(** [sub t ~pos ~len] extracts a slice. Simulated slices stay simulated;
    a sub of a [Slice] is a zero-copy {e borrowed} view of the same slab
    cell (no refcount: it is only valid while the parent is retained).
    A view of a payload someone else owns, such as a cached block, is
    valid only until its holder next yields: {!retain} it to keep it
    longer. Raises [Invalid_argument] on out-of-range. *)
val sub : t -> pos:int -> len:int -> t

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies bytes when both sides
    are real; when either side is simulated it only checks bounds (there
    is nothing to move). Mixed copies into a real destination from a
    [Sim] source zero-fill the range, modelling reading from a fresh
    simulated disk. Gather sources and destinations are walked segment by
    segment. Copies between heap bytes and a slab move a word at a time;
    slab to slab is a Bigarray blit. *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [concat ts] joins payloads with a copy; the result is [Real] iff all
    inputs are fully real (use {!gather} to join without copying). *)
val concat : t list -> t

(** [to_string t] renders real bytes, or zeros for simulated data. *)
val to_string : t -> string

(** [is_real t] — for a gather, whether every segment is real. A [Slice]
    is always real. *)
val is_real : t -> bool

(** {2 Slab-cell reference counting}

    No-ops for everything except arena-backed slices (and gathers
    containing them). A component that buffers a payload beyond the call
    that delivered it — the LFS open segment, a flush snapshot in flight
    — must [retain] before stashing and [release] when done; the cache
    releases its blocks' payloads when they leave the table. Retain and
    release of a gather walk its segments, so they pair only with each
    other or with the exact slices gathered. *)

val retain : t -> unit
val release : t -> unit

(** [detach t] deep-copies slab-backed payloads onto the GC heap —
    required before a device store keeps the contents past the request,
    since arena cells recycle. [Real]/[Sim] values pass through. *)
val detach : t -> t

(** [copy_seconds ~rate_bytes_per_sec len] is the simulated cost of a
    [len]-byte memory copy; the simulator sleeps this long wherever a real
    system would move data between buffers. *)
val copy_seconds : rate_bytes_per_sec:float -> int -> float
