type cursor = unit -> Record.t option

type inner =
  | Arr of Record.t array Lazy.t
  | Gen of (unit -> cursor)

type t = { src_name : string; inner : inner }

let name t = t.src_name

let of_array ?(name = "array") arr =
  { src_name = name; inner = Arr (Lazy.from_val arr) }

let of_lazy ?(name = "lazy") l = { src_name = name; inner = Arr l }
let of_fn ?(name = "cursor") f = { src_name = name; inner = Gen f }

(* Line-by-line file cursor: one open channel, one line and one record
   in memory at a time. The channel closes at EOF. A cursor abandoned
   mid-pass leaks its descriptor, since the GC does not close channels;
   replay pulls both of its passes to the end. *)
let file_cursor parse_line path () =
  let ic = open_in path in
  let lineno = ref 0 in
  let closed = ref false in
  let rec next () =
    if !closed then None
    else
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        closed := true;
        None
      | line -> (
        incr lineno;
        match parse_line ~line:!lineno line with
        | Some r -> Some r
        | None -> next () (* comment / blank *))
  in
  next

let sprite_file path =
  { src_name = path; inner = Gen (file_cursor Sprite_format.parse_line path) }

let coda_file path =
  { src_name = path; inner = Gen (file_cursor Coda_format.parse_line path) }

let as_array t =
  match t.inner with Arr l -> Some (Lazy.force l) | Gen _ -> None

let array_cursor arr () =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length arr then None
    else begin
      let r = arr.(!i) in
      incr i;
      Some r
    end

let cursor t =
  match t.inner with
  | Arr l -> array_cursor (Lazy.force l) ()
  | Gen f -> f ()

let to_array t =
  match t.inner with
  | Arr l -> Lazy.force l
  | Gen f ->
    let next = f () in
    let rec drain acc =
      match next () with None -> acc | Some r -> drain (r :: acc)
    in
    Array.of_list (List.rev (drain []))

let length t =
  match t.inner with
  | Arr l -> Array.length (Lazy.force l)
  | Gen f ->
    let next = f () in
    let rec count n = match next () with None -> n | Some _ -> count (n + 1) in
    count 0
