(** JSON: one value type with a reader and a printer. Every JSON
    document the tree writes is built as a {!t} and printed here —
    [BENCH_results.json], the server's [Stats] reply and stats file,
    statistics snapshots, the differential report and the records of
    the Perfetto trace — so escaping, separators and number formatting
    are decided in this module alone. *)

(** A JSON value. Every number is a float; an object keeps its members
    in order. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [num x] is [Num x] rounded to six significant digits, the
    precision the reports in this tree print; [Null] when [x] is not
    finite. *)
val num : float -> t

(** [parse s] reads one JSON value; a Unicode escape is decoded to UTF-8.
    [Error] names what was wrong and its byte offset. *)
val parse : string -> (t, string) result

(** [member k v] is member [k] of object [v]; [None] if [v] is not an
    object or has no such member. *)
val member : string -> t -> t option

(** [set k x v] replaces member [k] of object [v] with [x] in place,
    or appends it; any other [v] becomes the object [{k: x}]. *)
val set : string -> t -> t -> t

(** [compact v] prints [v] on one line, without a final newline:
    members and elements are separated by [", "], a member's name from
    its value by [": "]. A string escapes quote, backslash and every
    control character and keeps every other byte as it is. Integral
    numbers print without a fraction, others in the fewest digits that
    read back as the same float; a non-finite number prints [null]. *)
val compact : t -> string

(** [to_string v] prints [v] with a final newline. An object prints
    one member per line, and a member that is a non-empty array prints
    one element per line; everything below that is {!compact}. *)
val to_string : t -> string

(** [update_file path f] rewrites the JSON file [path] as [f] of its
    contents ([Obj []] when the file does not exist), so members [f]
    does not touch survive. [Error] when the file does not parse; it is
    then left as it is. *)
val update_file : string -> (t -> t) -> (unit, string) result
