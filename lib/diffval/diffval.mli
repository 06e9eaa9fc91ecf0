(** Differential sim-vs-real validation: one workload, two engines,
    checked equivalence.

    The paper's central claim is that policy code tuned inside the Patsy
    simulator runs {e unchanged} in the on-line PFS half. This harness
    makes that a checked property: it replays the {e same} trace

    - through {b Patsy} — virtual time, simulated HP97560 behind the
      paper's driver/cache/LFS stack, with real backing stores so the
      volume can be remounted; and
    - through {b PFS} — real time, the very same driver/cache/LFS code
      over a real Unix backing file ({!Capfs_pfs.File_blockdev});

    then captures a {!Capfs_stats.Snapshot.t} of the policy-visible
    statistics from each half at the equivalent sync point (after the
    final whole-system sync), remounts both volumes cold to check they
    fsck clean, and diffs the two snapshots counter by counter within
    declared tolerances. See VALIDATION.md for the cut-and-paste
    contract this enforces, and EXPERIMENTS.md for a worked example. *)

(** How far apart one counter may be between the halves. *)
type tolerance =
  | Exact              (** identical observation counts required *)
  | Within of { rel : float; abs : float }
      (** pass iff [|a - b| <= max abs (rel * max |a| |b|)] *)
  | Informational
      (** reported in the diff but never gated — timing counters
          (waits, stalls, queue depths) measure the engine, not the
          policy, and virtual vs. wall-clock seconds are
          incommensurable *)

(** [tolerance_for overrides key] resolves [key]'s tolerance: [overrides]
    first, then the built-in per-counter defaults keyed by counter suffix
    (["hits"], ["flushed_blocks"], …), then a loose gating fallback. The
    defaults are tabled in VALIDATION.md; CI lints the table against the
    source. *)
val tolerance_for : (string * tolerance) list -> string -> tolerance

(** One compared counter. *)
type verdict = {
  v_key : string;       (** full stat key, e.g. ["cache.flushed_blocks"] *)
  v_patsy : int;        (** observation count in the simulator half *)
  v_pfs : int;          (** observation count in the on-line half *)
  v_tolerance : tolerance;
  v_ok : bool;          (** within tolerance (always true when
                            informational) *)
}

(** One engine's summary: replay totals, fsck state, snapshot. *)
type side = {
  s_clock : string;             (** ["virtual"] or ["real"] *)
  s_operations : int;
  s_errors : int;
  s_skipped : int;
  s_elapsed : float;            (** engine seconds, first to last op *)
  s_fsck_errors : string list;  (** empty iff the cold remount fsck'd clean *)
  s_recovered_inodes : int;
  s_snapshot : Capfs_stats.Snapshot.t;
}

type report = {
  r_trace : string;
  r_policy : string;
  r_plan : string;          (** fault plan in {!Capfs_fault.Plan.to_string}
                                form; [""] when empty *)
  r_speedup : float;
  r_skewed : bool;          (** a deliberate skew was applied to PFS *)
  r_patsy : side;
  r_pfs : side;
  r_only_patsy : string list;  (** policy-visible keys PFS never registered *)
  r_only_pfs : string list;    (** …and vice versa: both must be empty *)
  r_verdicts : verdict list;
  r_ok : bool;
      (** all gated verdicts in tolerance, no key drift, both halves
          fsck-clean *)
}

type config = {
  base : Capfs_patsy.Experiment.config;
      (** shared engine configuration (policy, cache/NVRAM sizes, seed,
          coalescing, fault plan). [ndisks]/[nbuses] should stay 1 — PFS
          runs on a single backing file. Any [crash_at] in the fault
          plan is stripped: diffval compares two complete runs. *)
  image_mb : int;           (** PFS backing image size *)
  speedup : float;
      (** replay time compression, applied to {e both} halves so
          time-triggered policy behaviour matches *)
  pfs_clock : Capfs_sched.Sched.clock;
      (** [`Real] (the point of the exercise) by default; tests may pin
          [`Virtual] for determinism *)
  tolerances : (string * tolerance) list;
      (** per-suffix overrides, consulted before the built-in
          defaults of VALIDATION.md *)
}

(** Defaults: the given policy ({!Capfs_patsy.Experiment.Nvram_partial}
    if omitted) on one disk and one bus, free memcpy, 128 MB image,
    100 000x speedup, real clock for PFS, built-in tolerances. *)
val default : ?policy:Capfs_patsy.Experiment.policy -> unit -> config

(** [diff_snapshots ~patsy ~pfs ()] is the pure core: per-counter
    verdicts for every key present in both snapshots, plus the keys
    present in only one half (stat-name drift — a contract violation
    regardless of values). *)
val diff_snapshots :
  ?tolerances:(string * tolerance) list ->
  patsy:Capfs_stats.Snapshot.t ->
  pfs:Capfs_stats.Snapshot.t ->
  unit ->
  verdict list * string list * string list

val verdicts_ok : verdict list -> bool

(** [run ~trace_name source] executes both halves and diffs them. Both
    halves replay the same {!Capfs_trace.Source.t} serially (each makes
    its own passes over it; cursor-backed sources stream). [skew], when
    given, rewrites the PFS half's configuration only — deliberately
    desynchronizing the halves to prove the harness detects it (the
    resulting report must have [r_ok = false]).

    [Error e] is a harness failure (no outcome produced, unusable
    backing file, or a PFS volume that yields no statistics snapshot —
    [Error EINVAL], never a silently-empty comparison); an
    out-of-tolerance comparison is {e not} an error — it is [Ok report]
    with [r_ok = false], carrying the per-counter verdicts. *)
val run :
  ?config:config ->
  ?skew:(Capfs_patsy.Experiment.config -> Capfs_patsy.Experiment.config) ->
  trace_name:string ->
  Capfs_trace.Source.t ->
  (report, Capfs_core.Errno.t) result

(** Machine-readable report: one JSON object with both sides' replay
    totals, fsck findings, full snapshots and per-counter verdicts. *)
val to_json : report -> string

(** Human-readable per-counter report (what [patsy --differential]
    prints). *)
val pp : Format.formatter -> report -> unit
