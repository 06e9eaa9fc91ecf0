module Sched = Capfs_sched.Sched
module Errno = Capfs_core.Errno
module Cache = Capfs_cache.Cache
module Layout = Capfs_layout.Layout
module Inode = Capfs_layout.Inode

type t = {
  sched : Sched.t;
  registry : Capfs_stats.Registry.t;
  cache : Cache.t;
  layout : Layout.t;
}

let root_ino = 1

let create ?registry ?replacement ~cache_config ~layout sched =
  if cache_config.Cache.block_bytes <> layout.Layout.block_bytes then
    invalid_arg "Fsys.create: cache and layout disagree on block size";
  let registry =
    match registry with Some r -> r | None -> Capfs_stats.Registry.create ()
  in
  let cache =
    (* the cache's write-back daemons cannot thread a [result] back to a
       caller; layout failures surface as [Errno.Error] and take down the
       flushing fibre (hard faults escalate) *)
    Cache.create ~registry ?replacement
      ~writeback:(fun ups -> Errno.ok_exn (layout.Layout.write_blocks ups))
      sched cache_config
  in
  let t = { sched; registry; cache; layout } in
  (* a fresh layout has no root directory yet *)
  (match Errno.ok_exn (layout.Layout.get_inode root_ino) with
  | Some _ -> ()
  | None ->
    let root = Errno.ok_exn (layout.Layout.alloc_inode ~kind:Inode.Directory) in
    if root.Inode.ino <> root_ino then
      invalid_arg "Fsys.create: layout did not assign the root inode number";
    root.Inode.nlink <- 2;
    layout.Layout.update_inode root);
  t

let block_bytes t = t.layout.Layout.block_bytes
let now t = Sched.now t.sched

let root t =
  match Errno.ok_exn (t.layout.Layout.get_inode root_ino) with
  | Some inode -> inode
  | None -> failwith "Fsys.root: root inode missing"

let sync t =
  Errno.catch (fun () ->
      Cache.sync t.cache;
      Errno.ok_exn (t.layout.Layout.sync ()))
