(* Quickstart: assemble a complete file system from the cut-and-paste
   components and use it through the abstract client interface.

   Patsy and PFS assemble their instances with this same recipe,
   `Capfs.Stack`: swap the mem transport for
   `Driver.sim_transport (Sim_disk.create ...)` to get a simulated
   HP97560 under virtual time, or for `Capfs_pfs.File_blockdev.transport`
   + a `Real clock to get an on-line server over an image file.

   Run: dune exec examples/quickstart.exe *)

module Sched = Capfs_sched.Sched
module Driver = Capfs_disk.Driver
module Data = Capfs_disk.Data
module Cache = Capfs_cache.Cache
module Lfs = Capfs_layout.Lfs
module Stack = Capfs.Stack
module Client = Capfs.Client

let () =
  (* 1. a scheduler: virtual time, so this whole program runs instantly *)
  let sched = Sched.create ~clock:`Virtual () in
  (* 2. the knobs: a 256-block cache with the 30-second update, and a
     segmented LFS with small segments *)
  let config =
    {
      Stack.cache = Cache.default_config ~capacity_blocks:256;
      lfs = { Lfs.default_config with Lfs.seg_blocks = 32; checkpoint_blocks = 16 };
      iosched = "clook";
      replacement = "lru";
      seed = 1;
    }
  in
  (* 3. a block device and its driver: an 8 MB RAM disk holding real bytes *)
  let stack =
    Stack.create sched config
      [| Driver.mem_transport ~sector_bytes:512 ~total_sectors:16384 sched () |]
  in
  ignore
    (Sched.spawn sched (fun () ->
         (* 4. format the LFS volume; cache, file system and client on top *)
         let client = Stack.mount stack Stack.Format in
         let fs = Client.fsys client in
         (* 5. use it *)
         Client.mkdir_exn client "/home";
         Client.mkdir_exn client "/home/alice";
         Client.open_exn client ~client:1 "/home/alice/notes.txt" Client.WO;
         Client.write_exn client ~client:1 "/home/alice/notes.txt" ~offset:0
           (Data.of_string "cut-and-paste file systems!\n");
         Client.close_exn client ~client:1 "/home/alice/notes.txt";
         Client.symlink_exn client ~target:"/home/alice" "/home/a";
         let via_link =
           Client.read_exn client ~client:1 "/home/a/notes.txt" ~offset:0 ~bytes:64
         in
         Format.printf "read back: %s" (Data.to_string via_link);
         Format.printf "directory of /home:@.";
         List.iter
           (fun e -> Format.printf "  %s@." e.Capfs.Dir.name)
           (Client.readdir_exn client "/home");
         let st = Client.stat_exn client "/home/alice/notes.txt" in
         Format.printf "notes.txt: ino=%d size=%d@." st.Client.st_ino
           st.Client.st_size;
         (* everything to stable storage, then show what the run cost *)
         Client.sync_exn client;
         Format.printf "layout after sync:@.";
         List.iter
           (fun (k, v) -> Format.printf "  %-24s %.0f@." k v)
           (fs.Capfs.Fsys.layout.Capfs_layout.Layout.layout_stats ())));
  Sched.run sched;
  Format.printf "simulated time used: %.6f s@." (Sched.now sched)
