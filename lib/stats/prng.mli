(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the framework — random thread dispatch,
    fault injection, random cache replacement, synthetic workload
    generation, reservoir sampling — draws from an explicit [Prng.t]
    rather than [Stdlib.Random], so a simulation run is a pure function of
    its seed. This is what lets "a work load repeatedly be replayed on the
    same off-line simulator" bit-for-bit. *)

type t

val create : seed:int -> t

(** An independent stream split off from [t] (advances [t]). *)
val split : t -> t

(** Uniform over the full 64-bit range. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform in [[0, 1)]. *)
val float : t -> float

(** Exponentially distributed with the given [mean]. *)
val exponential : t -> mean:float -> float

(** [lognormal t ~mu ~sigma] — log-normal via Box–Muller. *)
val lognormal : t -> mu:float -> sigma:float -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** [choose t weights] picks index [i] with probability proportional to
    [weights.(i)]. Raises [Invalid_argument] on empty or all-zero
    weights. *)
val choose : t -> float array -> int
