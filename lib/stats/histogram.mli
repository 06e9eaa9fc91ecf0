(** Bucketed histograms.

    Patsy's plug-in statistics print histograms of disk-queue sizes,
    rotational delays and operation latencies. Two bucketing schemes are
    provided: fixed-width linear buckets and logarithmic buckets (each
    bucket boundary a constant factor apart), the latter suited to latency
    distributions spanning microseconds to seconds. *)

type t

(** [linear ~lo ~hi ~buckets] divides [[lo, hi)] into [buckets] equal
    buckets. Observations outside the range land in underflow/overflow
    buckets. Raises [Invalid_argument] if [hi <= lo] or [buckets < 1]. *)
val linear : lo:float -> hi:float -> buckets:int -> t

(** [log ~lo ~hi ~per_decade] covers [[lo, hi)] with logarithmic buckets,
    [per_decade] buckets per factor of ten. [lo] must be positive.
    Observations below [lo] (including non-positive ones) land in the
    underflow bucket. *)
val log : lo:float -> hi:float -> per_decade:int -> t

(** Fold one observation (with optional weight, default 1). *)
val add : ?weight:int -> t -> float -> unit

(** Number of buckets, excluding underflow/overflow. *)
val buckets : t -> int

(** [bounds t i] is the [lo, hi) range of bucket [i]. *)
val bounds : t -> int -> float * float

(** [count t i] is the weight accumulated in bucket [i]. *)
val count : t -> int -> int

val underflow : t -> int
val overflow : t -> int

(** Total weight over all buckets including under/overflow. *)
val total : t -> int

(** [cdf t] lists [(upper_bound, cumulative_fraction)] per bucket; the
    underflow weight is included in every entry and the overflow weight
    makes the final implicit point reach 1. Empty histogram gives []. *)
val cdf : t -> (float * float) list

(** [quantile t q] approximates the [q]-quantile (0 ≤ q ≤ 1) by linear
    interpolation within the containing bucket. Raises [Invalid_argument]
    on an empty histogram or out-of-range [q]. *)
val quantile : t -> float -> float

(** [merge ~into t] adds every observation of [t] to [into]. Raises
    [Invalid_argument] unless both have the same bucket bounds. *)
val merge : into:t -> t -> unit

(** Forget all observations, keeping the bucket structure. *)
val reset : t -> unit

(** [pp ppf t] prints non-empty buckets, one per line, with an ASCII bar. *)
val pp : Format.formatter -> t -> unit
