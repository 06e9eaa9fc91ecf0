(** Probabilistic workload generator.

    The paper (§4) plans "a component that can be used to hand craft
    work loads using probabilistic means … given some inputs, generate a
    work load and dispatch it to the simulator". This is that component,
    doubling as our stand-in for the recorded Sprite traces (see
    DESIGN.md): it reproduces the published workload {e statistics} —
    session-structured access (open, sequential I/O, close), mostly-small
    lognormal file sizes with a heavy tail, a hot subset of files, a high
    overwrite factor early in file lifetimes, frequent delete/truncate
    shortly after writing — which are the quantities the write-saving
    experiments are sensitive to.

    Like the real Sprite traces, the generator records {e when} files
    are opened and closed but leaves individual read/write times
    unrecorded ([Record.no_time]) unless [record_io_times] is set; the
    replay engine must synthesize them (equidistant placement), exactly
    as Patsy does. *)

type profile = {
  profile_name : string;
  clients : int;
  duration : float;          (** seconds of trace time *)
  mean_think : float;        (** mean think time between sessions/client *)
  files : int;               (** working-set size *)
  dirs : int;
  file_size_mu : float;      (** lognormal location (log bytes) *)
  file_size_sigma : float;
  read_fraction : float;     (** read sessions among read+write *)
  cold_read_fraction : float;
      (** read sessions against files the trace never wrote — files that
          pre-exist on the traced server; the replay engine synthesizes
          them with on-disk blocks, so they cost real disk reads *)
  stat_fraction : float;     (** probability of a stat burst instead *)
  delete_after_write : float;(** P(delete file soon after writing it) *)
  truncate_on_rewrite : float;(** P(rewrite truncates first) *)
  io_unit : int;             (** bytes per read/write record *)
  large_write_fraction : float; (** write sessions using [large_size] *)
  large_size : int;
  hot_fraction : float;      (** share of accesses hitting the hot 10% *)
  record_io_times : bool;
}

(** Five trace profiles stand in for the paper's Sprite traces 1a, 1b,
    2a, 2b and 5 (see DESIGN.md §3 for the calibration rationale); all
    five are in {!all_profiles}. 1b has "many large and parallel write
    operations" — the NVRAM bottleneck. *)
val sprite_1a : profile

val sprite_2a : profile

(** "many large writes … while there are also a fair amount of stat and
    read operations" — the cache-cluttering trace. *)
val sprite_5 : profile

val all_profiles : profile list
val profile_by_name : string -> profile

(** [generate ~seed ?duration profile] produces a time-sorted record
    array. Same seed, same trace. [duration] overrides the profile's.
    The array is immutable by convention (no writer mutates it after
    generation), so it can be shared freely — including across domains
    running concurrent experiments. *)
val generate : seed:int -> ?duration:float -> profile -> Record.t array

(** [source ~seed ?duration profile] is {!generate} wrapped as a lazy
    array-backed {!Source.t} named after the profile: nothing is
    generated until the first consumer pulls. (The generator's final
    global time-sort requires materializing the records, so a synthetic
    source is never cursor-backed; to stream a large synthetic trace,
    [save] it and use {!Source.sprite_file}.) Do not share one source
    value across domains — the lazy cell is not thread-safe; give each
    domain its own (as {!Fleet}'s per-worker [gen] memo does). *)
val source : seed:int -> ?duration:float -> profile -> Source.t
