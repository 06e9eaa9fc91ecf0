(** Streaming mean/variance accumulator (Welford's algorithm).

    Used by every plug-in statistic in Patsy to report means and standard
    deviations of latencies, queue lengths, etc. without retaining samples. *)

type t

(** [create ()] is an empty accumulator. *)
val create : unit -> t

(** [add t x] folds the observation [x] into [t]. *)
val add : t -> float -> unit

(** Number of observations folded so far. *)
val count : t -> int

(** Arithmetic mean; [0.] when empty. *)
val mean : t -> float

(** Unbiased sample variance; [0.] with fewer than two observations. *)
val variance : t -> float

(** Smallest observation; [infinity] when empty. *)
val min : t -> float

(** Largest observation; [neg_infinity] when empty. *)
val max : t -> float

(** Sum of all observations. *)
val total : t -> float

(** [merge a b] is a fresh accumulator equivalent to having folded all
    observations of [a] and [b]. *)
val merge : t -> t -> t

(** Forget all observations. *)
val reset : t -> unit

(** [pp ppf t] prints ["n=… mean=… sd=… min=… max=…"]. *)
val pp : Format.formatter -> t -> unit
