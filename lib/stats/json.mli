(** JSON string escaping, shared by every hand-rolled JSON writer in
    the tree (statistics snapshots, the differential report, trace
    export, bench results). *)

(** [add_escaped b s] appends [s] escaped for the inside of a JSON
    string literal: quote, backslash and every control character. *)
val add_escaped : Buffer.t -> string -> unit

(** [escape s] is {!add_escaped} into a fresh string. *)
val escape : string -> string

(** [quote s] is [escape s] between double quotes. *)
val quote : string -> string
