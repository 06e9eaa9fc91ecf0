(** Parameter sets for simulated disk drives. *)

type cache_config = {
  cache_bytes : int;          (** on-disk cache size; 0 disables it *)
  read_ahead_bytes : int;     (** prefetch window grown after idle reads *)
  immediate_report : bool;    (** writes complete once in the disk cache *)
}

type t = {
  model_name : string;
  geometry : Geometry.t;
  seek : Seek.t;
  rpm : float;
  head_switch : float;        (** seconds to select another head *)
  controller_overhead : float;(** command decode etc., per request *)
  cache : cache_config;
}

(** One full revolution, seconds. *)
val rotation_time : t -> float

(** Time for one sector to pass under the head. *)
val sector_time : t -> float

(** Media transfer rate, bytes/second. *)
val media_rate : t -> float

(** The HP 97560: 1.3 GB, 1962 cylinders × 19 heads × 72 sectors of
    512 bytes, 4002 rpm, 128 KB cache with 4 KB read-ahead and
    immediate-reported writes — the drive Patsy simulates, with the
    Ruemmler & Wilkes / Kotz parameters. *)
val hp97560 : t

(** A deliberately crude model: same capacity as {!hp97560} but constant
    seek and no cache — the kind of "simple disk model" whose results the
    paper calls "completely useless". Used by the validation benches. *)
val naive : t
