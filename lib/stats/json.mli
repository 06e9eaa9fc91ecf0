(** JSON: string escaping for the hand-rolled writers in the tree
    (statistics snapshots, the differential report, trace export), and
    one value type with a reader and a printer for the files more than
    one tool edits ([BENCH_results.json]). *)

(** [add_escaped b s] appends [s] escaped for the inside of a JSON
    string literal: quote, backslash and every control character. *)
val add_escaped : Buffer.t -> string -> unit

(** [escape s] is {!add_escaped} into a fresh string. *)
val escape : string -> string

(** [quote s] is [escape s] between double quotes. *)
val quote : string -> string

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

(** [to_string v] prints [v] with a final newline. An object prints
    one member per line, and a member that is a non-empty array prints
    one element per line; everything below that is on one line.
    Integral numbers print without a fraction, others in the fewest
    digits that read back as the same float; a non-finite number
    prints [null]. *)
val to_string : t -> string

(** [update_file path f] rewrites the JSON file [path] as [f] of its
    contents ([Obj []] when the file does not exist), so members [f]
    does not touch survive. [Error] when the file does not parse; it is
    then left as it is. *)
val update_file : string -> (t -> t) -> (unit, string) result
