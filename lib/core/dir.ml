module Codec = Capfs_layout.Codec
module Inode = Capfs_layout.Inode
module Data = Capfs_disk.Data

type entry = { name : string; entry_ino : int; kind : Inode.kind }

let serialize w entries =
  Codec.Writer.string w "DIR1";
  Codec.Writer.u32 w (List.length entries);
  List.iter
    (fun e ->
      Codec.Writer.string w e.name;
      Codec.Writer.u64 w e.entry_ino;
      Codec.Writer.u8 w (Inode.kind_to_int e.kind))
    entries

let deserialize s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> "DIR1" then raise (Codec.Corrupt "directory magic");
  let n = Codec.Reader.u32 r in
  List.init n (fun _ ->
      let name = Codec.Reader.string r in
      let entry_ino = Codec.Reader.u64 r in
      let kind = Inode.kind_of_int (Codec.Reader.u8 r) in
      { name; entry_ino; kind })

let load file =
  let size = File.size file in
  if size = 0 then Some []
  else begin
    let data = File.read file ~offset:0 ~bytes:size in
    if not (Data.is_real data) then None
    else
      match deserialize (Data.to_string data) with
      | entries -> Some entries
      | exception Codec.Corrupt _ -> None
  end

let store file entries =
  (* Write first, shrink second: a crash-time checkpoint captured
     between the two steps then parses as either the old or the new
     contents — never as a hole, which is what truncating first
     produces (it unmaps the old block while the rewrite is still
     delayed-allocated in the cache). [drop_cached] keeps the
     truncate-first cache lifecycle — the unflushed previous version
     dies in memory and the rewrite starts a fresh aging clock —
     without unmapping anything; the block-padded payload then replaces
     blocks wholesale, with no read-modify-write. The codec never reads
     the dead tail. *)
  let block_bytes = File.block_bytes file in
  let w = Codec.Writer.create ~capacity:block_bytes in
  serialize w entries;
  let size = Codec.Writer.length w in
  File.drop_cached file;
  File.write file ~offset:0 (Data.Real (Codec.Writer.blocks w ~block_bytes));
  File.truncate file ~size
