(** The load generator's workloads, each a function of one
    {!Cached_client.transport}.

    The transport's own clock ([t_now]) times every op and ends the
    run, so one workload runs two ways: over
    {!Cached_client.socket_transport} in a forked client of
    [pfs loadgen], and over {!Cached_client.virtual_transport} inside
    a test, where its protocol traffic is an exact count. Every
    function here that takes a transport closes it when done.

    Failures of the conversation itself (a send or receive error, a
    reply to no request, a setup step refused) raise [Failure] with a
    message; an op the server refuses is counted, not raised. *)

(** The three workload families.
    - [Seq]: private per-client files, [depth] requests pipelined,
      each slot cycling open→write→close→open→read→close.
    - [Zipf theta]: Zipf-skewed reads of shared files.
    - [Readmostly ratio]: uniform reads of shared files; [1-ratio] of
      the ops cycle a handle RO→WO→write→RO. *)
type workload = Seq | Zipf of float | Readmostly of float

(** [parse_workload s] reads [seq], [zipf:<theta>] ([theta ≥ 0]) or
    [readmostly:<ratio>] ([0 ≤ ratio ≤ 1]). *)
val parse_workload : string -> (workload, string) result

(** One client's run. [ops] counts ops that succeeded, each timed into
    [latency] (seconds, log buckets 12% wide from 1 µs to 1,000 s);
    [eagain] and [errors] count refused ones. [hits]/[misses] are
    {!Cached_client.local_hits}/{!Cached_client.remote_misses} (0 for
    a plain client). [msgs] counts the requests the run put on the
    wire, setup and a cached client's closing [disconnect] excepted. *)
type result = {
  ops : int;
  eagain : int;
  errors : int;
  secs : float;
  hits : int;
  misses : int;
  msgs : int;
  latency : Capfs_stats.Histogram.t;
}

(** [run tr ~id workload ~cache ~depth ~files ~bytes ~seconds] — client
    [id]'s run of [seconds] on [tr]'s clock. [files] is the private
    files per client ([Seq]) or the shared set, [bytes] each op's
    size. The shared families run over {!Cached_client} when [cache],
    else one plain request per op; [depth] applies to [Seq] only.
    Raises [Invalid_argument] for [Seq] with [cache]. *)
val run :
  Cached_client.transport ->
  id:int ->
  workload ->
  cache:bool ->
  depth:int ->
  files:int ->
  bytes:int ->
  seconds:float ->
  result

(** [setup_shared tr ~files ~bytes] writes the shared set ([files]
    files of [bytes] bytes under [/shared]) before any shared-family
    client starts. *)
val setup_shared : Cached_client.transport -> files:int -> bytes:int -> unit

(** Read-your-writes across two cached clients, through the push
    channel: A rewrites a file B holds cached; B's next read must see
    the new bytes and must have acted on at least one [Invalidate]. It
    pauses 100 ms (real time) before that read, for the push to land.
    Run after {!setup_shared}; the failing step is logged. *)
val consistency_probe :
  Cached_client.transport -> Cached_client.transport -> bytes:int -> bool

(** Send the server a wire [Shutdown] (it gets no reply). *)
val shutdown : Cached_client.transport -> unit

(** [summary] merges one run's client results into its JSON object
    (ops/s over the slowest client's seconds, p50/p99/p999 in µs,
    [client_msgs], [hit_rate], and [consistency] when probed) and a
    one-line summary. A failed probe counts as one error. *)
val summary :
  shards:int ->
  clients:int ->
  depth:int ->
  workload ->
  cache:bool ->
  consistency:bool option ->
  result list ->
  Capfs_stats.Json.t * string

(** [splice runs doc] sets [loadgen.runs] to [runs] and
    [loadgen.speedup] (last run's ops/s over the first's, [null] for
    one run) in a [BENCH_results.json] document. Every other member,
    in [loadgen] or beside it, is kept. *)
val splice :
  Capfs_stats.Json.t list -> Capfs_stats.Json.t -> Capfs_stats.Json.t
