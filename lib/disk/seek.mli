(** Seek-time models.

    Ruemmler & Wilkes showed that naive seek models mispredict performance
    by large factors; the HP97560 model here uses their published
    piecewise curve (a square-root region for short, acceleration-bound
    seeks and a linear region for long, coast-bound seeks). The simpler
    models exist so benchmarks can quantify exactly how wrong they are —
    the paper's own motivation for building a detailed simulator. *)

type t

(** [constant s] — every non-zero seek takes [s] seconds. The "simple
    disk model" the paper distrusts. *)
val constant : float -> t

(** [linear ~single ~max ~cylinders] interpolates between a one-cylinder
    seek of [single] seconds and a full-stroke seek of [max] seconds. *)
val linear : single:float -> max:float -> cylinders:int -> t

(** The HP97560 curve from Ruemmler & Wilkes (1994):
    3.24 + 0.400·√d ms below 383 cylinders, 8.00 + 0.008·d ms above. *)
val hp97560 : t

(** [time t ~distance] is the seek time in seconds for a [distance]-
    cylinder move; [0.] for zero distance. *)
val time : t -> distance:int -> float
