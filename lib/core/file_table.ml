module Layout = Capfs_layout.Layout
module Cache = Capfs_cache.Cache
module Errno = Capfs_core.Errno

type entry = { file : File.t; mutable unlinked : bool }
type t = { fsys : Fsys.t; table : (int, entry) Hashtbl.t }

let create fsys = { fsys; table = Hashtbl.create 256 }

let get t ino =
  match Hashtbl.find_opt t.table ino with
  | Some e -> Some e.file
  | None -> (
    match Errno.ok_exn (t.fsys.Fsys.layout.Layout.get_inode ino) with
    | Some inode ->
      let file = File.instantiate t.fsys inode in
      Hashtbl.replace t.table ino { file; unlinked = false };
      Some file
    | None -> None)

let create_file t ~kind =
  let inode = Errno.ok_exn (t.fsys.Fsys.layout.Layout.alloc_inode ~kind) in
  let file = File.instantiate t.fsys inode in
  Hashtbl.replace t.table inode.Capfs_layout.Inode.ino
    { file; unlinked = false };
  file

let free t ino =
  (* dirty blocks die in memory: this is the write-saving effect *)
  Cache.remove_file t.fsys.Fsys.cache ino;
  Errno.ok_exn (t.fsys.Fsys.layout.Layout.free_inode ino);
  Hashtbl.remove t.table ino

let unlink t ino =
  match Hashtbl.find_opt t.table ino with
  | Some e ->
    e.unlinked <- true;
    if File.open_count e.file = 0 then free t ino
  | None -> free t ino

let maybe_reap t ino =
  match Hashtbl.find_opt t.table ino with
  | Some e when e.unlinked && File.open_count e.file = 0 -> free t ino
  | Some _ | None -> ()

let loaded t = Hashtbl.length t.table
