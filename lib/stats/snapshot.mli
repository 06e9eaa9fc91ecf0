(** Stable, serializable counter snapshots.

    A snapshot freezes a {!Registry} into plain data: one entry per
    registered stat, keyed by its full [<instance>.<counter>] name (see
    {!Names}), carrying the observation count, the observation sum and
    the mean. Snapshots are what the two halves of the framework emit at
    equivalent sync points so the differential harness ([lib/diffval])
    can diff them — and what the JSON reports embed, so the exact
    figures a verdict was computed from survive the run. *)

type entry = {
  e_key : string;   (** full stat name, e.g. ["cache.hits"] *)
  e_count : int;    (** number of observations recorded *)
  e_total : float;  (** sum of the observations *)
  e_mean : float;   (** arithmetic mean; [0.] when never recorded *)
}

(** Entries sorted by key (the registry's name order). *)
type t = entry array

(** [capture ?filter registry] freezes every registered stat whose key
    satisfies [filter] (default: all). Capture at a quiescent point —
    after the final {!Capfs.Client.sync} — or in-flight write-backs will
    be missing from the flush counters. *)
val capture : ?filter:(string -> bool) -> Registry.t -> t

(** Keys, in entry order. *)
val keys : t -> string list

val find : t -> string -> entry option

(** The cut-and-paste contract filter: [true] for keys of components
    shared verbatim between Patsy and PFS — the block cache ([cache.*]),
    the disk driver ([driverN.*]) and the LFS volumes ([lfsN.*]).
    Device-model internals ([diskN.*], [busN.*]) and everything else
    are engine-specific and excluded.
    The authoritative table lives in VALIDATION.md. *)
val policy_visible : string -> bool

(** The snapshot as a JSON array of [{key, count, total, mean}]
    objects, in entry order; reports embed it. *)
val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
