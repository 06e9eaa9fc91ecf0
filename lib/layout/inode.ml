type kind = Regular | Directory | Symlink | Multimedia

let addr_none = -1
let ndirect = 32

type t = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable nlink : int;
  mutable uid : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable blocks : int array;
  mutable nblocks : int;
}

let make ~ino ~kind ~now =
  {
    ino;
    kind;
    size = 0;
    nlink = 1;
    uid = 0;
    atime = now;
    mtime = now;
    ctime = now;
    blocks = [||];
    nblocks = 0;
  }

let get_addr t i =
  if i < 0 then invalid_arg "Inode.get_addr: negative index";
  if i >= t.nblocks then addr_none else t.blocks.(i)

let set_addr t i addr =
  if i < 0 then invalid_arg "Inode.set_addr: negative index";
  if i >= Array.length t.blocks then begin
    let grown = Array.make (Stdlib.max 8 (Stdlib.max (i + 1) (2 * Array.length t.blocks))) addr_none in
    Array.blit t.blocks 0 grown 0 t.nblocks;
    t.blocks <- grown
  end;
  t.blocks.(i) <- addr;
  if i >= t.nblocks then t.nblocks <- i + 1

let truncate_blocks t ~blocks =
  if blocks < 0 then invalid_arg "Inode.truncate_blocks: negative";
  let dropped = ref [] in
  for i = blocks to t.nblocks - 1 do
    if t.blocks.(i) <> addr_none then dropped := t.blocks.(i) :: !dropped;
    t.blocks.(i) <- addr_none
  done;
  if blocks < t.nblocks then t.nblocks <- blocks;
  List.rev !dropped

let mapped t =
  let acc = ref [] in
  for i = t.nblocks - 1 downto 0 do
    if t.blocks.(i) <> addr_none then acc := (i, t.blocks.(i)) :: !acc
  done;
  !acc

let kind_to_int = function
  | Regular -> 0
  | Directory -> 1
  | Symlink -> 2
  | Multimedia -> 3

let kind_of_int = function
  | 0 -> Regular
  | 1 -> Directory
  | 2 -> Symlink
  | 3 -> Multimedia
  | n -> raise (Codec.Corrupt (Printf.sprintf "inode kind %d" n))

(* On-disk inode: header, ndirect inline addresses (with addr_none for
   holes), then the list of indirect-block addresses holding the rest. *)
let serialize w t ~indirect =
  Codec.Writer.u64 w t.ino;
  Codec.Writer.u8 w (kind_to_int t.kind);
  Codec.Writer.u64 w t.size;
  Codec.Writer.u32 w t.nlink;
  Codec.Writer.u32 w t.uid;
  Codec.Writer.f64 w t.atime;
  Codec.Writer.f64 w t.mtime;
  Codec.Writer.f64 w t.ctime;
  Codec.Writer.u32 w t.nblocks;
  let direct = Stdlib.min t.nblocks ndirect in
  for i = 0 to direct - 1 do
    (* addresses are shifted by one so addr_none (-1) encodes as 0 *)
    Codec.Writer.u64 w (t.blocks.(i) + 1)
  done;
  Codec.Writer.u32 w (List.length indirect);
  List.iter (fun a -> Codec.Writer.u64 w a) indirect

let addrs_per_indirect ~block_bytes = block_bytes / 8

(* The fixed part of an inode with indirect blocks: header, nblocks,
   all [ndirect] addresses and the indirect count. What is left of the
   block holds the indirect addresses. *)
let fixed_bytes = 8 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4 + (ndirect * 8) + 4
let max_indirect ~block_bytes = Stdlib.max 0 ((block_bytes - fixed_bytes) / 8)

let max_blocks ~block_bytes =
  ndirect + (max_indirect ~block_bytes * addrs_per_indirect ~block_bytes)

let indirect_count ~block_bytes ~nblocks =
  let per = addrs_per_indirect ~block_bytes in
  (Stdlib.max 0 (nblocks - ndirect) + per - 1) / per

(* Every count is checked before anything is sized by it: [nblocks]
   against what an inode block can map, and the indirect count against
   what [nblocks] needs. The block map is allocated only then. *)
let deserialize ~block_bytes s =
  let r = Codec.Reader.of_string s in
  let ino = Codec.Reader.u64 r in
  let kind = kind_of_int (Codec.Reader.u8 r) in
  let size = Codec.Reader.u64 r in
  let nlink = Codec.Reader.u32 r in
  let uid = Codec.Reader.u32 r in
  let atime = Codec.Reader.f64 r in
  let mtime = Codec.Reader.f64 r in
  let ctime = Codec.Reader.f64 r in
  let nblocks =
    Codec.Reader.count r ~max:(max_blocks ~block_bytes) "inode block"
  in
  let direct =
    Array.init (Stdlib.min nblocks ndirect) (fun _ -> Codec.Reader.u64 r - 1)
  in
  let n_ind = Codec.Reader.u32 r in
  if n_ind <> indirect_count ~block_bytes ~nblocks then
    raise
      (Codec.Corrupt
         (Printf.sprintf "inode of %d blocks with %d indirect blocks" nblocks
            n_ind));
  let indirect = List.init n_ind (fun _ -> Codec.Reader.u64 r) in
  let blocks = Array.make (Stdlib.max 8 nblocks) addr_none in
  Array.blit direct 0 blocks 0 (Array.length direct);
  ( { ino; kind; size; nlink; uid; atime; mtime; ctime; blocks; nblocks },
    indirect )

let load_indirect t ~block_bytes ~k s =
  let r = Codec.Reader.of_string s in
  let per = addrs_per_indirect ~block_bytes in
  let base = ndirect + (k * per) in
  let count =
    Codec.Reader.count r
      ~max:(Stdlib.min per (t.nblocks - base))
      "indirect address"
  in
  for i = 0 to count - 1 do
    set_addr t (base + i) (Codec.Reader.u64 r - 1)
  done

let pp ppf t =
  Format.fprintf ppf "ino=%d kind=%d size=%d nlink=%d blocks=%d" t.ino
    (kind_to_int t.kind) t.size t.nlink t.nblocks
