(** Rendering experiment results: the paper's figures as text series.

    Figures 2–4 are cumulative latency distributions; {!print_cdf}
    emits them as two-column series (latency in ms, cumulative fraction)
    with the paper's 2 ms cache-service and ~17 ms full-rotation
    boundaries annotated. Figure 5 is the mean-latency matrix over
    traces × policies; {!print_mean_table} renders it. *)

(** [cdf_series ?points result] — (latency_seconds, fraction) pairs. *)
val cdf_series :
  ?points:int -> Replay.result -> (float * float) list

(** Fraction of operations completing within the 2 ms cache boundary
    and within the ~17 ms rotation boundary. *)
val boundary_fractions : Replay.result -> float * float

(** [print_cdf ~title ppf result] prints the {!cdf_series} (default 60
    points) as a titled two-column text series, with the
    {!boundary_fractions} annotated below it. *)
val print_cdf :
  ?points:int -> title:string -> Format.formatter -> Replay.result -> unit

(** [print_mean_table ppf ~rows] where each row is
    [(trace_name, [(policy_name, value); ...])]. Values are scaled by
    [scale] (default 1000: seconds to milliseconds) and suffixed with
    [unit]. *)
val print_mean_table :
  ?scale:float ->
  ?unit:string ->
  Format.formatter ->
  rows:(string * (string * float) list) list ->
  unit

(** One-line summary of an experiment outcome; appends an
    [errors=N(kind:n,…)] field when any operation was refused. *)
val print_outcome_summary : Format.formatter -> Experiment.outcome -> unit

(** 15-minute window means ("measurements are shown every 15 minutes of
    simulation time"). *)
val print_windows : Format.formatter -> Replay.result -> unit
