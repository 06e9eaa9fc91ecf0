(** A trace source: where replay gets its records.

    A [Source.t] is either {e array-backed} (the records are in memory,
    possibly materialized lazily) or {e cursor-backed} (records are
    pulled one at a time from a restartable cursor, e.g. straight off a
    trace file). Replay treats both alike: it streams every source
    through one cursor pass, holding O(active window) records, so a
    cursor-backed source never needs the whole trace in memory.

    {2 Ownership}

    A cursor hands out fresh records; an array-backed source hands out
    the {e shared} underlying array. Record arrays are immutable by
    convention throughout the tree — producers ({!Synth.generate}, the
    format [load]ers) return arrays the consumer must not mutate, and
    replay builds a new record wherever it fills in a time — so one
    source (and one array) can safely feed many experiments, including
    experiments running in parallel domains. *)

type cursor = unit -> Record.t option
(** Pull the next record; [None] is end-of-trace. Cursors are single
    use and not thread-safe — get a fresh one per pass via {!cursor}. *)

type t

val name : t -> string

(** {2 Constructors} *)

val of_array : ?name:string -> Record.t array -> t
(** Array-backed: cursors walk the array itself, no copy. *)

val of_lazy : ?name:string -> Record.t array Lazy.t -> t
(** Array-backed, materialized on first use. The lazy cell is forced by
    whichever domain touches the source first: do not share one
    [of_lazy] source across domains (give each its own). *)

val of_fn : ?name:string -> (unit -> cursor) -> t
(** Cursor-backed: [f ()] must start a fresh pass over the same records
    each time it is called (replay makes two passes, each to the end). *)

val sprite_file : string -> t
(** Stream a {!Sprite_format} trace file line by line. Each pass
    reopens the file and closes it when the pass reaches the end of the
    file; memory is one line plus one record regardless of trace size.
    Parse errors raise {!Sprite_format.Parse_error} at pull time. *)

val coda_file : string -> t
(** Same, for {!Coda_format} files. *)

(** {2 Consumers} *)

val as_array : t -> Record.t array option
(** The underlying array of an array-backed source ([None] for
    cursor-backed ones). Forces a lazy source. *)

val cursor : t -> cursor
(** A fresh pass over the records. Works on every source (array-backed
    ones walk the array). *)

val to_array : t -> Record.t array
(** Materialize. Array-backed sources return the shared underlying
    array (do not mutate it); cursor-backed sources drain one fresh
    pass. *)

val length : t -> int
(** Number of records. O(1) for array-backed sources; drains a pass for
    cursor-backed ones. *)
