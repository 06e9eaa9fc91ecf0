(** Data payloads: real bytes, simulated placeholders, or gather lists.

    "The difference between a simulated cache and a real cache is the lack
    of a data pointer in the simulated case." A [Data.t] is either a real
    byte buffer on the GC heap (PFS), just a length (Patsy), or a
    scatter-gather list of these (a merged I/O request carrying several
    waiters' buffers as one transfer). All framework code moves [Data.t]
    values around; only the PFS helper components ever look inside. The
    simulator charges memory-copy time through {!copy_seconds}, so moving
    fake data still costs simulated time.

    {b Ownership.} A payload handed to [Client.write] or [Cache.write]
    belongs to the cache from then on, and nobody writes into its bytes
    again: a partial-block write merges into a fresh block instead. So
    any component may keep a payload it was handed or read — a cached
    block, the LFS open segment, a device store, a read reply on another
    domain — for as long as it likes, by reference, and the GC decides
    when the bytes die. The one mutating operation, {!blit}, is aimed
    only at a buffer its caller owns and has handed to no one: a fresh
    block, or a send buffer. *)

type t =
  | Real of bytes
  | Sim of int  (** length in bytes, no backing store *)
  | Gather of gather
      (** scatter-gather list; always >= 2 segments, at least one real *)

and gather = {
  g_total : int;  (** total length in bytes *)
  g_segs : (int * t) list;
      (** (offset, segment) sorted ascending, abutting, covering
          [0, g_total); segments are [Real] or [Sim], never nested *)
}

(** [real n] is a zero-filled real buffer of [n] bytes. *)
val real : int -> t

(** [sim n] is a simulated payload of [n] bytes. *)
val sim : int -> t

(** [of_string s] is a real payload holding [s]. *)
val of_string : string -> t

(** [gather ts] lays the payloads end to end as one scatter-gather value
    without copying: the result shares the segments' bytes. Nested
    gathers are flattened; degenerate inputs normalise to [Sim]/the sole
    segment, so an all-simulated gather costs nothing. *)
val gather : t list -> t

(** Payload length in bytes. *)
val length : t -> int

(** [sub t ~pos ~len] extracts a slice. A full-range sub of [Real] or
    [Sim] is [t] itself (payloads are never written once handed over,
    so sharing is safe); a narrower sub of [Real] copies its range;
    simulated slices stay simulated. Raises [Invalid_argument] on
    out-of-range. *)
val sub : t -> pos:int -> len:int -> t

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies bytes when both sides
    are real; when either side is simulated it only checks bounds (there
    is nothing to move). Mixed copies into a real destination from a
    [Sim] source zero-fill the range, modelling reading from a fresh
    simulated disk. Gather sources and destinations are walked segment by
    segment. *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [to_string t] renders real bytes, or zeros for simulated data. *)
val to_string : t -> string

(** [is_real t] — for a gather, whether every segment is real. *)
val is_real : t -> bool

(** [copy_seconds ~rate_bytes_per_sec len] is the simulated cost of a
    [len]-byte memory copy; the simulator sleeps this long wherever a real
    system would move data between buffers. *)
val copy_seconds : rate_bytes_per_sec:float -> int -> float
