(** Per-path grant state for the leased client cache.

    Sprite's version/holder machine for the {!Cached_client} protocol:
    a write-open bumps the file version and names the other holders to
    push {!Wire.push.Invalidate} frames to; concurrent write sharing (a
    writer plus any other holder) turns the file uncacheable, Sprite's
    rule, until the last writer closes (see {!close_}). The server
    never blocks on a client — there is no synchronous recall; a reader
    arriving on a delayed-write file instead invalidates the writer,
    which flushes and goes write-through.

    Lease durations are enforced by the {e client} (the grant carries
    the duration; local hits stop when it lapses), so holder state here
    is bounded only by connection lifetime: {!drop_client} runs when a
    connection dies. Thread-safe — shard fibres on different domains
    consult one table. *)

type t

(** What one open-grant decided. *)
type grant_info = {
  gi_version : int;
  gi_cacheable : bool;
  gi_invalidate : int list;
      (** client ids owed an [Invalidate {path; version}] push *)
}

(** Raises [Invalid_argument] unless [lease_s > 0]. *)
val create : lease_s:float -> unit -> t

val lease_s : t -> float

(** [held t ~client ~path] is [Some write] when the client currently
    holds the path (write-ness of the grant), [None] otherwise. *)
val held : t -> client:int -> path:string -> bool option

(** Record an open (or renewal) and decide the grant. *)
val open_grant :
  t -> client:int -> path:string -> write:bool -> grant_info

(** Release one client's hold. The last {e writer}'s close re-enables
    caching (its dirty blocks arrived in the same Writeback frame, so
    the server copy is current); surviving readers learn at their next
    lease renewal. *)
val close_ : t -> client:int -> path:string -> unit

(** Current version of a path (1 if never granted). *)
val version : t -> path:string -> int

(** [note_write t ~client ~path] — a mutation arrived outside the grant
    vocabulary (an old-style [Write], a [Delete]): bump the version and
    name every holder except the mutator for invalidation. [None] when
    the path was never granted (no cache can hold stale data). *)
val note_write :
  t -> client:int -> path:string -> (int * int list) option

(** Drop every hold of a disconnected client; returns the paths it
    held. *)
val drop_client : t -> client:int -> string list
