(** Per-path grant state for the leased client cache.

    Sprite's version/holder machine for the {!Cached_client} protocol.
    Cacheability is worked out from the holder set on every change:
    concurrent write sharing (a writer plus any other holder) is
    uncacheable, Sprite's rule; anything else is cacheable. A
    write-open, a mutation outside the grant vocabulary, and every
    change that flips cacheability name the other holders the server
    must push a {!Wire.push.Invalidate} to, carrying the path's version
    and cacheability as they are now. So a reader is revoked the moment
    write sharing starts and caches again the moment it ends — when the
    last writer closes, downgrades to read-only or disconnects — not at
    its next lease renewal. The server never blocks on a client — there
    is no synchronous recall; a reader arriving on a delayed-write file
    instead revokes the writer, which flushes and goes write-through.

    Lease durations are enforced by the {e client} (the grant carries
    the duration; local hits stop when it lapses), so holder state here
    is bounded only by connection lifetime: {!drop_client} runs when a
    connection dies. Thread-safe — shard fibres on different domains
    consult one table. *)

type t

(** One change's outcome: the path's version and cacheability after
    it, and the client ids owed an [Invalidate] push carrying both.
    A revocation always carries a newer version than any notice made
    before it; a restoration carries the current one, so it drops no
    block a renewal would keep. *)
type notice = {
  n_version : int;
  n_cacheable : bool;
  n_notify : int list;
}

(** Raises [Invalid_argument] unless [lease_s > 0]. *)
val create : lease_s:float -> unit -> t

val lease_s : t -> float

(** [held t ~client ~path] is [Some write] when the client currently
    holds the path (write-ness of the grant), [None] otherwise. *)
val held : t -> client:int -> path:string -> bool option

(** Record an open (or renewal, or mode change) and decide the grant:
    the notice's version and cacheability are the opener's grant.
    Everyone else is notified of a write-open (the version moves) and
    of a flip either way — a reader arriving on a writer's file, or a
    writer downgrading to read-only. *)
val open_grant : t -> client:int -> path:string -> write:bool -> notice

(** Release one client's hold. [Some] notice when that ended write
    sharing (the last writer left a shared file; its dirty blocks
    arrived in the same Writeback frame, so the server copy is
    current): the holders left are owed the restoration. *)
val close_ : t -> client:int -> path:string -> notice option

(** [note_write t ~client ~path] — a mutation arrived outside the grant
    vocabulary (an old-style [Write], a [Truncate], a [Rename], a
    [Delete]): bump the version and name every holder except the
    mutator. [None] when the path was never granted (no cache can hold
    stale data). *)
val note_write : t -> client:int -> path:string -> notice option

(** Drop every hold of a disconnected client; returns the restorations
    owed, one per path whose write sharing that ended. *)
val drop_client : t -> client:int -> (string * notice) list
