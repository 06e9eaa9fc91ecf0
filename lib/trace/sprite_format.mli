(** Sprite-style trace text format.

    One record per line:
    {v <time|?> c<client> <op> <path> [args...] v}
    e.g. {v 12.000731 c3 write /usr/alice/paper.tex 8192 4096 v}
    ["?"] as the time field marks an unrecorded timestamp. Lines starting
    with [#] and blank lines are ignored, so trace files can carry
    headers describing their provenance.

    This module parses/prints the format the {!Record} pretty-printer
    emits; drop-in readers for the original binary Sprite traces would
    slot in beside it. *)

exception Parse_error of int * string
(** line number, message *)

val parse_line : line:int -> string -> Record.t option
(** [None] for comments/blank lines. Raises {!Parse_error}. *)

(** Parse a whole trace body. The returned array is fresh and, like
    every record array in the tree, immutable by convention: consumers
    (replay, diffval, the fleet) share it without copying — including
    across domains — and never write to it. *)
val of_string : string -> Record.t array

val to_string : Record.t array -> string

(** File I/O convenience wrappers. [load] materializes the whole trace;
    for O(1)-memory replay of large traces use
    {!Source.sprite_file}, which streams the same format line by
    line. *)
val load : string -> Record.t array

val save : string -> Record.t array -> unit
