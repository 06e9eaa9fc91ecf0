(* Fibonacci-style multiplicative mix. OCaml's [Hashtbl] masks the
   hash with a power-of-two table size, so an identity hash would
   collide every key sharing low bits; folding the high product bits
   back down spreads all of them over the low bits. *)
let mix k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

module Key = struct
  type t = int

  let index_bits = 25
  let max_index = (1 lsl index_bits) - 1
  let max_ino = (1 lsl (Sys.int_size - 1 - index_bits)) - 1

  let v ino index =
    if ino < 0 || ino > max_ino then
      invalid_arg "Block.Key.v: inode number out of range"
    else if index < 0 || index > max_index then
      invalid_arg "Block.Key.v: block index out of range"
    else (ino lsl index_bits) lor index

  let ino k = k lsr index_bits
  let index k = k land max_index
  let equal (a : int) (b : int) = a = b
  let compare (a : int) (b : int) = compare a b

  let hash = mix

  let pp ppf k = Format.fprintf ppf "%d:%d" (ino k) (index k)
end

module Ino_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end)

type state = Clean | Dirty | Flushing

type times = { mutable dirtied_at : float; mutable last_access : float }

type t = {
  mutable key : Key.t;
  mutable data : Capfs_disk.Data.t;
  mutable state : state;
  times : times;
  mutable access_count : int;
  mutable version : int;
  mutable in_nvram : bool;
  mutable pinned : int;
  mutable policy_slot : int;
  mutable zombie : bool;
  mutable holds : int;
  mutable repl_prev : t;
  mutable repl_next : t;
  mutable dirty_prev : t;
  mutable dirty_next : t;
  mutable file_prev : t;
  mutable file_next : t;
}

let make ~key ~data ~now =
  let rec b =
    {
      key;
      data;
      state = Clean;
      times = { dirtied_at = now; last_access = now };
      access_count = 0;
      version = 0;
      in_nvram = false;
      pinned = 0;
      policy_slot = -1;
      zombie = false;
      holds = 0;
      repl_prev = b;
      repl_next = b;
      dirty_prev = b;
      dirty_next = b;
      file_prev = b;
      file_next = b;
    }
  in
  b

let reset b ~key ~data ~now =
  b.key <- key;
  b.data <- data;
  b.state <- Clean;
  b.times.dirtied_at <- now;
  b.times.last_access <- now;
  b.access_count <- 0;
  b.version <- 0;
  b.in_nvram <- false;
  b.pinned <- 0;
  b.policy_slot <- -1;
  b.zombie <- false;
  b.holds <- 0;
  b.repl_prev <- b;
  b.repl_next <- b;
  b.dirty_prev <- b;
  b.dirty_next <- b;
  b.file_prev <- b;
  b.file_next <- b

let sentinel () = make ~key:(Key.v 0 0) ~data:(Capfs_disk.Data.sim 0) ~now:0.

let ino t = Key.ino t.key
let index t = Key.index t.key
let is_dirty t = match t.state with Dirty | Flushing -> true | Clean -> false
let evictable t = t.state = Clean && t.pinned = 0
let pin t = t.pinned <- t.pinned + 1

let unpin t =
  if t.pinned <= 0 then invalid_arg "Block.unpin: not pinned";
  t.pinned <- t.pinned - 1

let pp ppf t =
  Format.fprintf ppf "%a[%s%s%s]" Key.pp t.key
    (match t.state with Clean -> "C" | Dirty -> "D" | Flushing -> "F")
    (if t.in_nvram then "N" else "")
    (if t.pinned > 0 then "P" else "")
