(** Plug-in statistics objects.

    Patsy's detailed internal measurements are "plug-in statistics
    objects … activated when the simulator is started", each providing
    "standard statistics output with or without histograms". A [Stat.t]
    is such an object: a named sink for float observations that can render
    a report. Components expose the stats they maintain; the {!Registry}
    activates and prints them. *)

type t

(** [scalar name] records mean/min/max/stddev only. *)
val scalar : string -> t

(** [with_histogram name hist] additionally buckets observations into
    [hist] and prints it in reports. *)
val with_histogram : string -> Histogram.t -> t

val name : t -> string
val record : t -> float -> unit
val count : t -> int
val mean : t -> float
val welford : t -> Welford.t

val reset : t -> unit

(** [report ?histograms ppf t] prints the one-line summary and, when
    [histograms] is true (default) and a histogram is attached, the
    histogram body. *)
val report : ?histograms:bool -> Format.formatter -> t -> unit
