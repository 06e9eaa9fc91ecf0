module Inode = Capfs_layout.Inode
module Data = Capfs_disk.Data
module Errno = Capfs_core.Errno

type stat = {
  st_ino : int;
  st_kind : Inode.kind;
  st_size : int;
  st_nlink : int;
  st_mtime : float;
  st_atime : float;
}

type open_mode = RO | WO | RW

type t = {
  fs : Fsys.t;
  ftable : File_table.t;
  ns : Namespace.t;
  (* client -> (path -> ino of the open descriptor). Two levels rather
     than a [(int * string)]-keyed table: handle lookups run once per
     replayed I/O, and a tuple key costs a fresh allocation (plus a
     polymorphic hash of the pair) on every probe. *)
  handles : (int, (string, int) Hashtbl.t) Hashtbl.t;
}

let create fs =
  let ftable = File_table.create fs in
  let ns = Namespace.create fs ftable in
  { fs; ftable; ns; handles = Hashtbl.create 16 }

let client_handles t client =
  match Hashtbl.find t.handles client with
  | h -> h
  | exception Not_found ->
    let h = Hashtbl.create 16 in
    Hashtbl.replace t.handles client h;
    h

let fsys t = t.fs
let file_table t = t.ftable

let file_of_ino t ino =
  match File_table.get t.ftable ino with
  | Some f -> f
  | None -> raise (Namespace.Not_found_path (Printf.sprintf "ino %d" ino))

let file_of_path t path = file_of_ino t (Namespace.resolve t.ns path)

(* Data operations refuse a directory: its bytes are the namespace. *)
let data_file path file =
  if File.kind file = Inode.Directory then
    raise (Namespace.Is_a_directory path);
  file

(* {2 The exception-to-errno boundary}

   Bodies below raise ([Namespace] exceptions from path walking,
   [Errno.Error] escalated from layouts and drivers); [trap] is where
   every public operation converts that into a typed result. Anything
   it does not recognise is a programming error and propagates. *)

(* [trap f] wraps the cold operations; the replay-hot ones below use a
   bare [try]/[with] handing the exception to [errno_or_reraise], so no
   thunk closure is allocated per call. *)
let errno_or_reraise : exn -> ('a, Errno.t) result = function
  | Namespace.Not_found_path _ -> Error Errno.ENOENT
  | Namespace.Already_exists _ -> Error Errno.EEXIST
  | Namespace.Not_a_directory _ -> Error Errno.ENOTDIR
  | Namespace.Is_a_directory _ -> Error Errno.EISDIR
  | Namespace.Not_empty _ -> Error Errno.ENOTEMPTY
  | Namespace.Symlink_loop _ -> Error Errno.ELOOP
  | Errno.Error e -> Error e
  | e -> raise e

let trap f = try Ok (f ()) with e -> errno_or_reraise e

(* {2 Namespace operations} *)

let mkdir_x t path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  let dir = File_table.create_file t.ftable ~kind:Inode.Directory in
  let inode = File.inode dir in
  inode.Inode.nlink <- 2;
  t.fs.Fsys.layout.Capfs_layout.Layout.update_inode inode;
  Namespace.add_entry t.ns ~parent ~name ~ino:(File.ino dir)
    ~kind:Inode.Directory

let create_file_x t ?(kind = Inode.Regular) path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  let file = File_table.create_file t.ftable ~kind in
  Namespace.add_entry t.ns ~parent ~name ~ino:(File.ino file) ~kind

let symlink_x t ~target path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  let link = File_table.create_file t.ftable ~kind:Inode.Symlink in
  Namespace.add_entry t.ns ~parent ~name ~ino:(File.ino link)
    ~kind:Inode.Symlink;
  Namespace.set_symlink_target t.ns (File.ino link) target

let readlink_x t path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  match Namespace.lookup t.ns ~dir:parent ~name with
  | Some { Dir.kind = Inode.Symlink; entry_ino; _ } -> (
    match Namespace.symlink_target t.ns entry_ino with
    | Some target -> target
    | None -> raise (Namespace.Not_found_path path))
  | Some _ -> raise (Errno.Error Errno.EINVAL) (* not a symlink *)
  | None -> raise (Namespace.Not_found_path path)

let rmdir_x t path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  match Namespace.lookup t.ns ~dir:parent ~name with
  | Some { Dir.kind = Inode.Directory; entry_ino; _ } ->
    if Namespace.entries t.ns entry_ino <> [] then
      raise (Namespace.Not_empty path);
    ignore (Namespace.remove_entry t.ns ~parent ~name);
    File_table.unlink t.ftable entry_ino
  | Some _ -> raise (Namespace.Not_a_directory path)
  | None -> raise (Namespace.Not_found_path path)

let delete_x t path =
  let path = Namespace.normalize path in
  let parent, name = Namespace.split_parent t.ns path in
  match Namespace.lookup t.ns ~dir:parent ~name with
  | Some { Dir.kind = Inode.Directory; _ } ->
    raise (Namespace.Is_a_directory path)
  | Some { Dir.entry_ino; _ } ->
    ignore (Namespace.remove_entry t.ns ~parent ~name);
    let inode_alive =
      match File_table.get t.ftable entry_ino with
      | Some f ->
        let inode = File.inode f in
        inode.Inode.nlink <- inode.Inode.nlink - 1;
        inode.Inode.nlink > 0
      | None -> false
    in
    if not inode_alive then File_table.unlink t.ftable entry_ino
  | None -> raise (Namespace.Not_found_path path)

(* Every check runs before the first [remove_entry], so a refused
   rename changes nothing. *)
let rename_x t ~src ~dst =
  let src = Namespace.normalize src and dst = Namespace.normalize dst in
  let sparent, sname = Namespace.split_parent t.ns src in
  let dparent, dname = Namespace.split_parent t.ns dst in
  let entry =
    match Namespace.lookup t.ns ~dir:sparent ~name:sname with
    | Some e -> e
    | None -> raise (Namespace.Not_found_path src)
  in
  let is_dir = entry.Dir.kind = Inode.Directory in
  (* a directory cannot move beneath itself. [dparent] is already
     resolved (through any symlinks), so search [src]'s subtree for it
     by inode rather than comparing path prefixes. *)
  let rec holds_dparent dir =
    dir = dparent
    || List.exists
         (fun e ->
           e.Dir.kind = Inode.Directory && holds_dparent e.Dir.entry_ino)
         (Namespace.entries t.ns dir)
  in
  if is_dir && holds_dparent entry.Dir.entry_ino then
    raise (Errno.Error Errno.EINVAL);
  if sparent <> dparent || sname <> dname then begin
    (* replace an existing destination, as rename(2) does *)
    let replaced = Namespace.lookup t.ns ~dir:dparent ~name:dname in
    (match replaced with
    | Some { Dir.kind = Inode.Directory; entry_ino; _ } ->
      if not is_dir then raise (Namespace.Is_a_directory dst);
      if Namespace.entries t.ns entry_ino <> [] then
        raise (Namespace.Not_empty dst)
    | Some _ -> if is_dir then raise (Namespace.Not_a_directory dst)
    | None -> ());
    ignore (Namespace.remove_entry t.ns ~parent:sparent ~name:sname);
    (match replaced with
    | Some { Dir.entry_ino; _ } ->
      ignore (Namespace.remove_entry t.ns ~parent:dparent ~name:dname);
      File_table.unlink t.ftable entry_ino
    | None -> ());
    Namespace.add_entry t.ns ~parent:dparent ~name:dname
      ~ino:entry.Dir.entry_ino ~kind:entry.Dir.kind
  end

let readdir_x t path =
  let path = Namespace.normalize path in
  let ino = Namespace.resolve t.ns path in
  Namespace.entries t.ns ino

let stat_x t path =
  let path = Namespace.normalize path in
  let file = file_of_path t path in
  let inode = File.inode file in
  {
    st_ino = inode.Inode.ino;
    st_kind = inode.Inode.kind;
    st_size = inode.Inode.size;
    st_nlink = inode.Inode.nlink;
    st_mtime = inode.Inode.mtime;
    st_atime = inode.Inode.atime;
  }

let exists t path = Namespace.resolve_opt t.ns (Namespace.normalize path) <> None

let ensure_dirs_x t path =
  let path = Namespace.normalize path in
  let comps = String.split_on_char '/' path |> List.filter (fun c -> c <> "") in
  match List.rev comps with
  | [] -> ()
  | _leaf :: rev_dirs ->
    let dirs = List.rev rev_dirs in
    ignore
      (List.fold_left
         (fun prefix d ->
           let dir_path = prefix ^ "/" ^ d in
           if not (exists t dir_path) then mkdir_x t dir_path;
           dir_path)
         "" dirs)

let synthesize_file_x t ?(kind = Inode.Regular) path ~size =
  let path = Namespace.normalize path in
  ensure_dirs_x t path;
  if not (exists t path) then create_file_x t ~kind path;
  let file = file_of_path t path in
  let inode = File.inode file in
  if inode.Inode.size < size then begin
    let bb = Fsys.block_bytes t.fs in
    let blocks = (size + bb - 1) / bb in
    Errno.ok_exn (t.fs.Fsys.layout.Capfs_layout.Layout.adopt inode ~blocks);
    inode.Inode.size <- size;
    t.fs.Fsys.layout.Capfs_layout.Layout.update_inode inode
  end

(* {2 File I/O} *)

let open_x t ~client path mode =
  let path = Namespace.normalize path in
  let ino =
    match Namespace.resolve_opt t.ns path with
    | Some ino -> ino
    | None -> (
      match mode with
      | RO -> raise (Namespace.Not_found_path path)
      | WO | RW ->
        create_file_x t path;
        Namespace.resolve t.ns path)
  in
  let file = data_file path (file_of_ino t ino) in
  let h = client_handles t client in
  if Hashtbl.mem h path then
    (* idempotent re-open: traces occasionally re-open without a close *)
    ()
  else begin
    Hashtbl.replace h path ino;
    File.opened file
  end

let close_x t ~client path =
  let path = Namespace.normalize path in
  let h = client_handles t client in
  match Hashtbl.find h path with
  | exception Not_found -> raise (Errno.Error Errno.EBADF)
  | ino ->
    Hashtbl.remove h path;
    (match File_table.get t.ftable ino with
    | Some file ->
      File.closed file;
      File_table.maybe_reap t.ftable ino
    | None -> ())

(* An I/O against a path the client never opened falls back to a
   transient open (real traces miss open records now and then).
   Direct style rather than a [with_file f] combinator: [read] and
   [write] sit on the replay hot path, and a callback would allocate a
   closure capturing the I/O parameters on every call. *)
let lookup_file t ~client path ~create_if_missing =
  let h = client_handles t client in
  match Hashtbl.find h path with
  | ino -> file_of_ino t ino
  | exception Not_found -> (
    match Namespace.resolve_opt t.ns path with
    | Some ino -> data_file path (file_of_ino t ino)
    | None ->
      if create_if_missing then begin
        create_file_x t path;
        file_of_path t path
      end
      else raise (Namespace.Not_found_path path))

let read_x t ~client path ~offset ~bytes =
  let path = Namespace.normalize path in
  let file = lookup_file t ~client path ~create_if_missing:false in
  File.read file ~offset ~bytes

let write_x t ~client path ~offset data =
  let path = Namespace.normalize path in
  let file = lookup_file t ~client path ~create_if_missing:true in
  File.write file ~offset data

let truncate_x t path ~size =
  let path = Namespace.normalize path in
  File.truncate (data_file path (file_of_path t path)) ~size

let fsync_x t path =
  let path = Namespace.normalize path in
  File.flush (file_of_path t path)

let close_all_x t ~client =
  match Hashtbl.find_opt t.handles client with
  | None -> ()
  | Some h ->
    let paths = Hashtbl.fold (fun path _ acc -> path :: acc) h [] in
    List.iter (fun path -> close_x t ~client path) paths

let open_handles t =
  Hashtbl.fold (fun _ h acc -> acc + Hashtbl.length h) t.handles 0

(* {2 Public result API + [_exn] conveniences} *)

let mkdir t path = trap (fun () -> mkdir_x t path)
let rmdir t path = trap (fun () -> rmdir_x t path)
let create_file t ?kind path = trap (fun () -> create_file_x t ?kind path)
let symlink t ~target path = trap (fun () -> symlink_x t ~target path)
let readlink t path = trap (fun () -> readlink_x t path)
let rename t ~src ~dst = trap (fun () -> rename_x t ~src ~dst)
let delete t path = try Ok (delete_x t path) with e -> errno_or_reraise e
let readdir t path = trap (fun () -> readdir_x t path)
let stat t path = try Ok (stat_x t path) with e -> errno_or_reraise e
let ensure_dirs t path = trap (fun () -> ensure_dirs_x t path)

let synthesize_file t ?kind path ~size =
  trap (fun () -> synthesize_file_x t ?kind path ~size)

let open_ t ~client path mode =
  try Ok (open_x t ~client path mode) with e -> errno_or_reraise e

let close_ t ~client path =
  try Ok (close_x t ~client path) with e -> errno_or_reraise e

let read t ~client path ~offset ~bytes =
  try Ok (read_x t ~client path ~offset ~bytes) with e -> errno_or_reraise e

let write t ~client path ~offset data =
  try Ok (write_x t ~client path ~offset data) with e -> errno_or_reraise e

let truncate t path ~size =
  try Ok (truncate_x t path ~size) with e -> errno_or_reraise e

let fsync t path = try Ok (fsync_x t path) with e -> errno_or_reraise e
let sync t = Fsys.sync t.fs
let close_all t ~client = trap (fun () -> close_all_x t ~client)

let mkdir_exn t path = Errno.ok_exn (mkdir t path)
let rmdir_exn t path = Errno.ok_exn (rmdir t path)
let create_file_exn t ?kind path = Errno.ok_exn (create_file t ?kind path)
let symlink_exn t ~target path = Errno.ok_exn (symlink t ~target path)
let readlink_exn t path = Errno.ok_exn (readlink t path)
let rename_exn t ~src ~dst = Errno.ok_exn (rename t ~src ~dst)
let delete_exn t path = Errno.ok_exn (delete t path)
let readdir_exn t path = Errno.ok_exn (readdir t path)
let stat_exn t path = Errno.ok_exn (stat t path)

let synthesize_file_exn t ?kind path ~size =
  Errno.ok_exn (synthesize_file t ?kind path ~size)

let open_exn t ~client path mode = Errno.ok_exn (open_ t ~client path mode)
let close_exn t ~client path = Errno.ok_exn (close_ t ~client path)

let read_exn t ~client path ~offset ~bytes =
  Errno.ok_exn (read t ~client path ~offset ~bytes)

let write_exn t ~client path ~offset data =
  Errno.ok_exn (write t ~client path ~offset data)

let truncate_exn t path ~size = Errno.ok_exn (truncate t path ~size)
let fsync_exn t path = Errno.ok_exn (fsync t path)
let sync_exn t = Errno.ok_exn (sync t)
let close_all_exn t ~client = Errno.ok_exn (close_all t ~client)
