(** Rendering merged event streams.

    A merged stream is a [(stream, event) list]: events from one or more
    tracers, tagged with the index of the stream (experiment / worker
    job) they came from and sorted by [(time, seq, stream)]. A single
    tracer's output fits the shape with [stream = 0] (see {!of_events}).

    {b Chrome [trace_event] JSON.} {!to_file} writes the "JSON object
    format" understood by [chrome://tracing] and by Perfetto's trace
    viewer ({:https://ui.perfetto.dev}): one object per event with
    [name]/[cat]/[ph]/[ts]/[pid]/[tid]/[args]. Streams become processes
    ([pid]), scheduler fibres become threads ([tid]); events with a
    duration (disk seeks and services) are complete spans ([ph = "X"])
    and everything else is an instant ([ph = "i"]). Timestamps are the
    scheduler's seconds converted to the format's microseconds, to the
    nanosecond. Each record is a {!Capfs_stats.Json.t} printed on its
    own line with {!Capfs_stats.Json.compact} and written as it is
    built, so the document is never held in memory whole.

    The schema of every emitted record is documented in
    [EXPERIMENTS.md]. *)

(** [of_events evs] tags a single tracer's stream with stream id 0. *)
val of_events : Event.t list -> (int * Event.t) list

(** One line per event: [stream time layer name source args…]. *)
val pp_text : Format.formatter -> (int * Event.t) list -> unit

(** [to_file path stream] writes the complete JSON document —
    [{"traceEvents": [...], "displayTimeUnit": "ms"}], the track-naming
    [thread_name] records first — to [path] (truncating). The file
    loads directly into Perfetto or [about:tracing]. *)
val to_file : string -> (int * Event.t) list -> unit
