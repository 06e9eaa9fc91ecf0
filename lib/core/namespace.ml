module Inode = Capfs_layout.Inode
module Data = Capfs_disk.Data

exception Not_found_path of string
exception Already_exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Not_empty of string
exception Symlink_loop of string


type t = {
  fsys : Fsys.t;
  ftable : File_table.t;
  (* in-core mirror: dir ino -> (name -> entry); loaded lazily *)
  dirs : (int, (string, Dir.entry) Hashtbl.t) Hashtbl.t;
  symlinks : (int, string) Hashtbl.t;
  (* path -> ino memo for [resolve]: only successful resolutions are
     cached, so adding an entry can never stale it (a name that now
     resolves simply was not cached); any removal or symlink retarget
     resets it wholesale. Bounded by the number of distinct live paths. *)
  resolved : (string, int) Hashtbl.t;
}

let create fsys ftable =
  {
    fsys;
    ftable;
    dirs = Hashtbl.create 256;
    symlinks = Hashtbl.create 16;
    resolved = Hashtbl.create 256;
  }

(* Replay calls [normalize] on every operation, and trace paths are
   almost always already in normal form: detect that with a char scan
   and return the argument itself, so the split/concat (a list of
   component strings plus a fresh result string, per op) only runs on
   the odd denormal path. A "." component is a lone dot bounded by
   slashes (or the ends); ".." is an ordinary component either way. *)
let already_normal path =
  let n = String.length path in
  n > 0
  && path.[0] = '/'
  && (n = 1 || path.[n - 1] <> '/')
  &&
  let ok = ref true in
  for i = 1 to n - 1 do
    match String.unsafe_get path i with
    | '/' -> if path.[i - 1] = '/' then ok := false
    | '.' ->
      if path.[i - 1] = '/' && (i = n - 1 || path.[i + 1] = '/') then
        ok := false
    | _ -> ()
  done;
  !ok

let normalize path =
  if already_normal path then path
  else
    let parts = String.split_on_char '/' path in
    let parts = List.filter (fun p -> p <> "" && p <> ".") parts in
    "/" ^ String.concat "/" parts

let components path =
  String.split_on_char '/' path |> List.filter (fun p -> p <> "" && p <> ".")

let dir_file t ino =
  match File_table.get t.ftable ino with
  | Some f when File.kind f = Inode.Directory -> f
  | Some _ -> raise (Not_a_directory (string_of_int ino))
  | None -> raise (Not_found_path (string_of_int ino))

(* Load the in-core mirror for a directory, parsing from disk when the
   payload is real (PFS / remount), empty otherwise. *)
let mirror t ino =
  match Hashtbl.find_opt t.dirs ino with
  | Some m -> m
  | None ->
    let m = Hashtbl.create 8 in
    (match Dir.load (dir_file t ino) with
    | Some entries ->
      List.iter (fun e -> Hashtbl.replace m e.Dir.name e) entries
    | None -> ());
    Hashtbl.replace t.dirs ino m;
    m

let persist t ino =
  let m = mirror t ino in
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) m [] in
  let entries = List.sort (fun a b -> compare a.Dir.name b.Dir.name) entries in
  Dir.store (dir_file t ino) entries

let entries t ino =
  let m = mirror t ino in
  Hashtbl.fold (fun _ e acc -> e :: acc) m []
  |> List.sort (fun a b -> compare a.Dir.name b.Dir.name)

let lookup t ~dir ~name = Hashtbl.find_opt (mirror t dir) name

let set_symlink_target t ino target =
  Hashtbl.reset t.resolved;
  Hashtbl.replace t.symlinks ino target;
  match File_table.get t.ftable ino with
  | Some f -> File.write f ~offset:0 (Data.of_string target)
  | None -> ()

let symlink_target t ino =
  match Hashtbl.find_opt t.symlinks ino with
  | Some target -> Some target
  | None -> (
    (* remounted image: the target lives in the link's data *)
    match File_table.get t.ftable ino with
    | Some f when File.kind f = Inode.Symlink ->
      let data = File.read f ~offset:0 ~bytes:(File.size f) in
      if Data.is_real data then begin
        let target = Data.to_string data in
        Hashtbl.replace t.symlinks ino target;
        Some target
      end
      else None
    | Some _ | None -> None)

let max_symlink_depth = 8

let resolve_uncached t path =
  let root = Fsys.root_ino in
  let rec walk dir_ino comps depth ~orig =
    match comps with
    | [] -> dir_ino
    | name :: rest -> (
      match lookup t ~dir:dir_ino ~name with
      | None -> raise (Not_found_path orig)
      | Some e -> (
        match e.Dir.kind with
        | Inode.Symlink -> (
          if depth >= max_symlink_depth then raise (Symlink_loop orig);
          match symlink_target t e.Dir.entry_ino with
          | None -> raise (Not_found_path orig)
          | Some target ->
            let target_comps = components target in
            let base = if String.length target > 0 && target.[0] = '/' then root else dir_ino in
            let via = walk base target_comps (depth + 1) ~orig in
            walk via rest depth ~orig)
        | Inode.Directory -> walk e.Dir.entry_ino rest depth ~orig
        | Inode.Regular | Inode.Multimedia ->
          if rest = [] then e.Dir.entry_ino else raise (Not_a_directory orig)))
  in
  let comps = components path in
  walk root comps 0 ~orig:path

(* Replay resolves the same handful of paths over and over; the memo
   turns the per-op component split + directory walk into one string
   probe. Failures are never cached (they carry no entry to go stale,
   and a later create must be visible immediately). *)
let resolve t path =
  match Hashtbl.find t.resolved path with
  | ino -> ino
  | exception Not_found ->
    let ino = resolve_uncached t path in
    Hashtbl.replace t.resolved path ino;
    ino

let resolve_opt t path =
  match resolve t path with
  | ino -> Some ino
  | exception (Not_found_path _ | Not_a_directory _ | Symlink_loop _) -> None

let split_parent t path =
  let comps = components path in
  match List.rev comps with
  | [] -> raise (Capfs_core.Errno.Error Capfs_core.Errno.EINVAL)
  | leaf :: rev_parents ->
    let parent_path = "/" ^ String.concat "/" (List.rev rev_parents) in
    let parent = resolve t parent_path in
    (* the parent must actually be a directory *)
    ignore (dir_file t parent);
    (parent, leaf)

let add_entry t ~parent ~name ~ino ~kind =
  let m = mirror t parent in
  if Hashtbl.mem m name then raise (Already_exists name);
  Hashtbl.replace m name { Dir.name; entry_ino = ino; kind };
  persist t parent

let remove_entry t ~parent ~name =
  let m = mirror t parent in
  match Hashtbl.find_opt m name with
  | None -> raise (Not_found_path name)
  | Some e ->
    Hashtbl.reset t.resolved;
    Hashtbl.remove m name;
    persist t parent;
    e
