(** Canonical component instance names.

    Both halves of the framework — Patsy (off-line simulator) and PFS
    (on-line server) — register plug-in statistics under
    [<instance>.<counter>] keys. Differential validation diffs the two
    registries key by key, so the {e instance} part must not drift
    between the halves: a counter the simulator calls ["driver0.wait"]
    must not surface as ["pfsdisk.wait"] on line. Every call site that
    names a cache, disk driver or layout volume goes through this module;
    ad-hoc instance strings are the bug this module exists to prevent
    (see VALIDATION.md). *)

(** The (single) server block cache: ["cache"]. *)
val cache : string

(** [driver d] is disk driver [d]: ["driver0"], ["driver1"], … PFS has
    exactly one, [driver 0]. *)
val driver : int -> string

(** [lfs d] is LFS volume [d]: ["lfs0"], … PFS mounts [lfs 0]. *)
val lfs : int -> string

(** [disk d] is simulated drive [d] (device model; Patsy only). *)
val disk : int -> string

(** [bus b] is simulated SCSI bus [b] (device model; Patsy only). *)
val bus : int -> string

(** [wire c] is a socket data-plane counter: ["wire.frames_sent"] and
    the ["wire.syscalls"] ([write(2)] calls) that carried them,
    ["wire.reads"] ([read(2)] calls that returned bytes) and the
    ["wire.frames_received"] cut out of them, ["wire.blit_count"],
    ["wire.copied_bytes"] (socket server; never part of the diffval
    contract — wall-clock wire traffic has no simulated twin). *)
val wire : string -> string
