(** Trace replay: drive the abstract client interface from a trace.

    "Clients are modeled by separate threads of control… The threads read
    a part of the trace file, group operations that obviously belong
    together (such as an open, read, read, write, …, close sequence), and
    call the abstract-client interface… Since all of the trace records
    have timing information in them, the threads know how long they have
    to delay themselves before they can dispatch the next operation.
    When simulation information is missing (such as the actual time a
    read or write operation took place), the client thread makes a guess
    … the operations are positioned equidistant between the open and
    close operation."

    Latency of every dispatched operation is measured from its scheduled
    dispatch time to completion, recorded per operation class and
    overall, in 15-minute simulation windows and in a retained sample
    set for cumulative-distribution plots. *)

type result = {
  operations : int;
  errors : int;         (** operations refused (ENOENT etc.) *)
  skipped_ops : int;
      (** trace artifacts, counted apart from errors. Two kinds:
          - a close, delete or rmdir of a path the trace never created
            (the target predates the trace window, and an operation
            that only destroys state has nothing sensible to
            synthesize);
          - a mkdir that finds a directory already at its path: another
            client's record under that directory ran first, at the same
            or an earlier trace instant, and synthesis made the
            directory for it.

          A mkdir that finds a file at its path is an error. *)
  errors_by_kind : (string * int) list;
      (** nonzero error classes only, keyed by
          {!Capfs_core.Errno.to_string} mnemonics, e.g. [("enoent", 33)]
          — the typed error each refused operation returned *)
  elapsed : float;      (** simulated seconds from first to last op *)
  latency : Capfs_stats.Sample_set.t;   (** per-operation latency *)
  latency_by_op : (string * Capfs_stats.Welford.t) list;
  windows : Capfs_stats.Interval.t;     (** 15-minute interval summaries *)
}

(** [synthesize_times records] is [records] in the order replay
    dispatches them — input order — with the missing times filled in:
    an untimed read, write or truncate inside a (client, path) session,
    from a timed open to a timed close, is placed equidistantly between
    the two; every other untimed record (a re-open ends a session
    untimed) inherits the previous record's time. It drains
    the synthesizer {!run} replays through into a fresh array; the
    input, possibly shared across experiment domains, is never
    mutated. *)
val synthesize_times : Capfs_trace.Record.t array -> Capfs_trace.Record.t array

(** [run client source] spawns one fibre per trace client, replays to
    completion (all fibres joined), then closes leftover descriptors.
    [speedup] divides every inter-operation delay (default 1.0 = trace
    time). Results are reported in 15-minute (900 s) windows. A
    reference to a file the trace assumes pre-exists creates it on the
    fly with adopted ("already on disk") blocks — the paper's synthesis
    of the initial file-system layout.

    Every source, array-backed or cursor-backed, replays through one
    engine: the records stream through the time synthesizer of
    {!synthesize_times}, which holds back only what synthesis still
    needs, so replay memory is O(active window) — the longest
    open-session span (untimed I/O cannot be timed until its close
    arrives) plus the inter-client dispatch skew — instead of
    O(trace length). The source is traversed twice, a counting pass and
    then the replay pass, and both reach the end of the trace, so a file
    source has closed its descriptor when [run] returns.

    [real_data] (default false) makes writes carry {!Capfs_disk.Data}
    [real] payloads instead of byte-count-only [sim] ones — required by
    crash experiments, where file contents must survive on the backing
    store.

    [serial] (default false) dispatches every record from a single
    fibre in strict trace order instead of one fibre per trace client.
    Cross-client interleaving is engine-timing-dependent (a simulated
    disk and a real file complete I/O at different speeds), so two
    engines replaying the same trace concurrently can make {e
    different} logical state transitions — serial mode removes that,
    which is what differential validation needs. Keep the concurrent
    default for performance experiments: queue depth and overlap are
    part of what Patsy measures.

    [observe] is called with each trace record {e after} it has
    been applied successfully (shadow-model hook for consistency
    checking); refused operations are not observed. *)
val run :
  ?speedup:float ->
  ?real_data:bool ->
  ?serial:bool ->
  ?observe:(Capfs_trace.Record.t -> unit) ->
  Capfs.Client.t ->
  Capfs_trace.Source.t ->
  result
