(** Parallel experiment fleet: fan a matrix of independent experiments
    out over OCaml 5 domains.

    Every {!Experiment.run} builds a private virtual-time scheduler,
    disk farm, cache and statistics registry, so the (trace × policy)
    matrix of the paper's evaluation (§5.1, Figures 2–5) is
    embarrassingly parallel. The fleet runs a fixed pool of worker
    domains over a shared work queue (an atomic job counter); results
    land in per-job slots, so the output order is the input order and is
    independent of scheduling.

    Domain isolation rules:
    - traces are generated {e inside} the worker domain that needs them
      (the [gen] callback), memoized per worker by trace name — the
      generator's PRNG state is never shared; lazily generated sources
      are forced at memoization time, so the cost is never billed to an
      experiment's GC counters;
    - trace record arrays are immutable by convention, so a
      caller-supplied [gen] may return a source over a shared
      pre-loaded array; cursor-backed sources (e.g.
      {!Capfs_trace.Source.sprite_file}) stream each worker's replay
      with O(active window) memory;
    - a job that fails is captured as an [Error] {!failure} in its
      result slot; the worker moves on to the next job and the pool
      never wedges. Typed file-system errors ({!Capfs_core.Errno.Error})
      are kept as {!Failed} codes; anything else is a {!Crashed}
      exception. *)

type job = {
  label : string;             (** display / report key, unique per job *)
  trace : string;             (** trace name, passed to [gen] *)
  config : Experiment.config;
}

(** Why a job produced no outcome: a typed file-system error that
    escaped the experiment (e.g. [ENOSPC] filling a tiny volume, [EIO]
    from an unlucky fault plan), or an unclassified exception — a real
    bug. *)
type failure = Failed of Capfs_core.Errno.t | Crashed of exn

val pp_failure : Format.formatter -> failure -> unit

type job_result = {
  job : job;
  result : (Experiment.outcome, failure) result;
  wall_s : float;             (** host wall-clock seconds for this job *)
  minor_words : float;
      (** words allocated in the worker domain's minor heap during the
          experiment (trace generation excluded) — divide by the
          operation count for the allocation rate of the replay loop *)
  promoted_words : float;     (** of those, words promoted to the major heap *)
  major_words : float;
      (** words put into the major heap during the experiment: the
          promoted ones plus those allocated there directly (blocks
          larger than 256 words, such as a 4 KiB metadata buffer) *)
  major_collections : int;    (** major GC cycles during the experiment *)
  worker : int;               (** index of the worker domain that ran it *)
}

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val default_jobs : unit -> int

(** The canonical label of a matrix cell: ["<trace>/<policy-name>"]. *)
val matrix_label : trace:string -> Experiment.policy -> string

(** [run_jobs ~jobs ~gen jl] runs every job of [jl] on a pool of [jobs]
    worker domains ([jobs <= 1] runs inline on the calling domain, with
    identical results — experiments depend only on their config, trace
    and seed, never on which domain runs them). [gen name] must produce
    the trace for [name]; it is called from worker domains and memoized
    per worker. Results are returned in job order. *)
val run_jobs :
  ?jobs:int ->
  gen:(string -> Capfs_trace.Source.t) ->
  job list ->
  job_result list

(** [run_matrix ~jobs ~gen ~config pairs] — the (trace × policy) matrix:
    one job per pair, configured by [config policy] (default
    {!Experiment.default}), labelled with {!matrix_label}. *)
val run_matrix :
  ?jobs:int ->
  ?config:(Experiment.policy -> Experiment.config) ->
  gen:(string -> Capfs_trace.Source.t) ->
  (string * Experiment.policy) list ->
  job_result list

(** Outcome of a result, re-raising the captured failure on [Error]
    ({!Failed} codes re-raise as {!Capfs_core.Errno.Error}). *)
val outcome_exn : job_result -> Experiment.outcome

(** [failures results] — the jobs that failed, with their failures. *)
val failures : job_result list -> (job * failure) list

(** [merged_events results] — the event traces of the successful jobs,
    merged into one stream tagged with each event's job index. The order
    is (virtual time, job index, sequence number) and depends only on
    the jobs' configs and seeds — never on [?jobs] or on which domain
    ran what — so a [-j 1] and a [-j 8] run of the same matrix merge to
    identical streams. *)
val merged_events :
  job_result list -> (int * Capfs_obs.Event.t) list
