(** File-system trace records.

    "File-system traces are collections of records that describe all the
    activity of a real file-system at some time. These records specify
    when the operation took place (usually down to the microsecond), and
    which file-system operation was executed." A record time of
    {!no_time} marks a parameter the trace did not capture; the replay
    engine synthesizes it (reads/writes are placed equidistantly between
    their open and close — §4). *)

type mode = Read_only | Write_only | Read_write

type op =
  | Open of { path : string; mode : mode }
  | Close of { path : string }
  | Read of { path : string; offset : int; bytes : int }
  | Write of { path : string; offset : int; bytes : int }
  | Stat of { path : string }
  | Delete of { path : string }
  | Truncate of { path : string; size : int }
  | Mkdir of { path : string }
  | Rmdir of { path : string }

type t = {
  time : float;  (** seconds since trace start; {!no_time} if unrecorded *)
  client : int;  (** workstation / process issuing the operation *)
  op : op;
}

(** Sentinel for "the trace did not record when this happened". *)
val no_time : float

val has_time : t -> bool

(** [make ~time ~client op] is [{ time; client; op }], except that every
    record made with [time = no_time] shares one boxed [no_time]: an
    untimed record costs no float box of its own. *)
val make : time:float -> client:int -> op -> t

(** Path named by the operation. *)
val path : t -> string

(** Operation mnemonic ("open", "read", …). *)
val op_name : t -> string

val pp : Format.formatter -> t -> unit

(** Total bytes moved by the record (reads + writes; 0 otherwise). *)
val bytes_moved : t -> int
