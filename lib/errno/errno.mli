(** The framework-wide error vocabulary.

    Every fallible operation below the client API — driver I/O, layout
    block/inode operations, namespace manipulation — reports failure as
    [('a, Errno.t) result] over this single variant, replacing the
    per-module exception zoo (three separate [Disk_full]s,
    [Client.Bad_handle], six [Namespace] exceptions). The names follow
    errno(3), and the PFS wire protocol carries them unchanged: a
    reply's status byte is [1 + to_index e].

    This module sits below every other [capfs] library (it depends only
    on [unix]) so that [lib/disk] and [lib/layout] can share the type
    with [lib/core] without a dependency cycle. *)

type t =
  | ENOENT      (** no such file or directory *)
  | EEXIST      (** file exists *)
  | ENOTDIR     (** not a directory *)
  | EISDIR      (** is a directory *)
  | ENOTEMPTY   (** directory not empty *)
  | ELOOP       (** too many levels of symbolic links *)
  | EBADF       (** bad file handle *)
  | ESTALE      (** stale (server-side) file handle *)
  | ENOSPC      (** no space left on device *)
  | EIO         (** hard input/output error *)
  | ETIMEDOUT   (** I/O did not complete within the driver's deadline *)
  | EINVAL      (** invalid argument *)
  | EAGAIN
      (** resource temporarily unavailable — the server's typed
          admission-control pushback: a shard's bounded request queue is
          full and the client should back off and retry *)
  | EXDEV
      (** cross-device link — a server-side [Rename] whose two names
          live on different shards *)

(** Every constructor, in declaration order. The order is stable: replay
    and bench report error counts in arrays indexed by {!to_index}, and
    wire status bytes are [1 + to_index e], so new codes only ever go
    at the end. *)
val all : t array

(** Position of [t] in {!all}. *)
val to_index : t -> int

(** Lowercase errno mnemonic: ["enoent"], ["eio"], … *)
val to_string : t -> string

(** The closest [Unix.error]. [ESTALE] has no portable constructor and
    maps to [Unix.EUNKNOWNERR 116] (Linux's [ESTALE]). *)
val to_unix : t -> Unix.error

(** Inverse of {!to_unix} where one exists; anything unmapped collapses
    to [EIO], the catch-all hard failure. *)
val of_unix : Unix.error -> t

(** Internal escalation carrier: module internals that cannot thread a
    [result] through (cache write-back daemons, deep recursion) raise
    [Error e] and a boundary converts it back with {!catch}. Public APIs
    never let it escape. *)
exception Error of t

(** [catch f] runs [f] and converts a raised {!Error} into [Result.Error]. *)
val catch : (unit -> 'a) -> ('a, t) result

(** [ok_exn r] unwraps [Ok] and raises {!Error} on [Result.Error]. *)
val ok_exn : ('a, t) result -> 'a

val pp : Format.formatter -> t -> unit
