(* Integration tests: the abstract client interface over the full stack
   (cache + LFS + driver), exercising namespace semantics, file I/O,
   unlink-while-open, symlinks, multimedia files and remount
   persistence. *)

open Capfs
module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Cache = Capfs_cache.Cache
module Lfs = Capfs_layout.Lfs
module Inode = Capfs_layout.Inode
module Layout = Capfs_layout.Layout
module Errno = Capfs_core.Errno

let lfs_config =
  {
    Lfs.seg_blocks = 16;
    checkpoint_blocks = 16;
    cleaner = Lfs.Cost_benefit;
    min_free_segments = 3;
    target_free_segments = 5;
    first_ino = 1;
    ino_stride = 1;
  }

let cache_config =
  {
    Cache.block_bytes = 4096;
    capacity_blocks = 64;
    nvram_blocks = 0;
    trigger = Cache.Demand;
    scope = `Whole_file;
    async_flush = true;
    mem_copy_rate = 0.;
    coalesce = false;
    flush_window = 4;
    max_extent_blocks = 64;
  }

let make_client ?(sectors = 16384) s =
  let drv =
    Driver.create s (Driver.mem_transport ~sector_bytes:512 ~total_sectors:sectors s ())
  in
  let layout = Lfs.format_and_mount ~config:lfs_config s drv ~block_bytes:4096 in
  let fs = Fsys.create ~cache_config ~layout s in
  (Client.create fs, drv)

let run_fs f =
  let s = Sched.create ~clock:`Virtual () in
  ignore (Sched.spawn s (fun () -> f s));
  Sched.run s

let test_write_read_roundtrip () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/home";
      Client.open_exn c ~client:1 "/home/hello.txt" Client.WO;
      Client.write_exn c ~client:1 "/home/hello.txt" ~offset:0
        (Data.of_string "hello, cut-and-paste world");
      Client.close_exn c ~client:1 "/home/hello.txt";
      Client.open_exn c ~client:2 "/home/hello.txt" Client.RO;
      let d = Client.read_exn c ~client:2 "/home/hello.txt" ~offset:0 ~bytes:100 in
      Alcotest.(check string) "contents" "hello, cut-and-paste world"
        (Data.to_string d);
      Client.close_exn c ~client:2 "/home/hello.txt")

let test_read_beyond_eof_is_short () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0 (Data.of_string "abc");
      let d = Client.read_exn c ~client:1 "/f" ~offset:1 ~bytes:100 in
      Alcotest.(check string) "short read" "bc" (Data.to_string d);
      let d2 = Client.read_exn c ~client:1 "/f" ~offset:10 ~bytes:5 in
      Alcotest.(check int) "empty beyond eof" 0 (Data.length d2))

let test_partial_block_rmw () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0
        (Data.of_string (String.make 8192 'a'));
      (* overwrite 100 bytes in the middle of block 0 *)
      Client.write_exn c ~client:1 "/f" ~offset:1000
        (Data.of_string (String.make 100 'b'));
      let d = Client.read_exn c ~client:1 "/f" ~offset:0 ~bytes:8192 in
      let str = Data.to_string d in
      Alcotest.(check char) "before" 'a' str.[999];
      Alcotest.(check char) "inside" 'b' str.[1000];
      Alcotest.(check char) "last inside" 'b' str.[1099];
      Alcotest.(check char) "after" 'a' str.[1100];
      Alcotest.(check int) "size unchanged" 8192 (Client.stat_exn c "/f").Client.st_size)

let test_write_spanning_blocks () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:1 "/f" Client.WO;
      (* 3 blocks + offset straddle *)
      let payload = String.init 10000 (fun i -> Char.chr (33 + (i mod 90))) in
      Client.write_exn c ~client:1 "/f" ~offset:2048 (Data.of_string payload);
      let d = Client.read_exn c ~client:1 "/f" ~offset:2048 ~bytes:10000 in
      Alcotest.(check string) "spanning write" payload (Data.to_string d);
      Alcotest.(check int) "size" 12048 (Client.stat_exn c "/f").Client.st_size)

let test_mkdir_nested_and_readdir () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/a";
      Client.mkdir_exn c "/a/b";
      Client.create_file_exn c "/a/b/f1";
      Client.create_file_exn c "/a/b/f2";
      let names =
        Client.readdir_exn c "/a/b" |> List.map (fun e -> e.Dir.name)
      in
      Alcotest.(check (list string)) "entries" [ "f1"; "f2" ] names;
      let top = Client.readdir_exn c "/a" |> List.map (fun e -> e.Dir.name) in
      Alcotest.(check (list string)) "nested" [ "b" ] top)

let test_namespace_errors () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/d";
      Client.create_file_exn c "/d/f";
      (match Client.create_file c "/d/f" with
      | Error Errno.EEXIST -> ()
      | _ -> Alcotest.fail "duplicate create must be EEXIST");
      (match Client.open_ c ~client:1 "/missing" Client.RO with
      | Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "RO open of missing must be ENOENT");
      (match Client.mkdir c "/d/f/sub" with
      | Error Errno.ENOTDIR -> ()
      | _ -> Alcotest.fail "mkdir under a file must be ENOTDIR");
      (match Client.rmdir c "/d" with
      | Error Errno.ENOTEMPTY -> ()
      | _ -> Alcotest.fail "rmdir of non-empty must be ENOTEMPTY");
      (match Client.delete c "/d" with
      | Error Errno.EISDIR -> ()
      | _ -> Alcotest.fail "delete of a directory must be EISDIR");
      Client.delete_exn c "/d/f";
      Client.rmdir_exn c "/d";
      Alcotest.(check bool) "gone" false (Client.exists c "/d"))

let test_delete_while_open_unix_semantics () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0 (Data.of_string "still here");
      Client.delete_exn c "/f";
      Alcotest.(check bool) "name gone" false (Client.exists c "/f");
      (* the open descriptor still reads the data *)
      let d = Client.read_exn c ~client:1 "/f" ~offset:0 ~bytes:10 in
      Alcotest.(check string) "data alive" "still here" (Data.to_string d);
      Client.close_exn c ~client:1 "/f";
      (* after last close the inode is reaped *)
      let ft = Client.file_table c in
      ignore ft;
      Alcotest.(check bool) "cannot reopen" false (Client.exists c "/f"))

let test_truncate_shrinks_and_absorbs () =
  run_fs (fun s ->
      let c, _ = make_client s in
      let reg = (Client.fsys c).Fsys.registry in
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0
        (Data.of_string (String.make 16384 'x'));
      Client.truncate_exn c "/f" ~size:4096;
      Alcotest.(check int) "size" 4096 (Client.stat_exn c "/f").Client.st_size;
      (* the truncated dirty blocks never reached the disk *)
      match Capfs_stats.Registry.find reg "cache.absorbed_writes" with
      | Some st ->
        if Capfs_stats.Stat.count st < 3 then
          Alcotest.fail "expected absorbed writes from truncate"
      | None -> Alcotest.fail "stat missing")

let test_rename_moves_and_replaces () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/a";
      Client.mkdir_exn c "/b";
      Client.open_exn c ~client:1 "/a/f" Client.WO;
      Client.write_exn c ~client:1 "/a/f" ~offset:0 (Data.of_string "payload");
      Client.close_exn c ~client:1 "/a/f";
      Client.rename_exn c ~src:"/a/f" ~dst:"/b/g";
      Alcotest.(check bool) "src gone" false (Client.exists c "/a/f");
      let d = Client.read_exn c ~client:1 "/b/g" ~offset:0 ~bytes:7 in
      Alcotest.(check string) "moved" "payload" (Data.to_string d);
      (* replacing rename *)
      Client.create_file_exn c "/b/h";
      Client.rename_exn c ~src:"/b/g" ~dst:"/b/h";
      let d2 = Client.read_exn c ~client:1 "/b/h" ~offset:0 ~bytes:7 in
      Alcotest.(check string) "replaced" "payload" (Data.to_string d2);
      (* refused renames change nothing *)
      Client.mkdir_exn c "/a/b";
      Client.mkdir_exn c "/a/b/keep";
      Client.create_file_exn c "/b/d";
      Client.mkdir_exn c "/e";
      Client.symlink_exn c ~target:"/a/b" "/l";
      let refuse what want ~src ~dst =
        match Client.rename c ~src ~dst with
        | Error e when e = want -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
        | Ok () -> Alcotest.failf "%s: accepted" what
      in
      refuse "into own subtree" Errno.EINVAL ~src:"/a" ~dst:"/a/b/c";
      refuse "into own subtree via symlink" Errno.EINVAL ~src:"/a" ~dst:"/l/c";
      refuse "dir onto non-empty dir" Errno.ENOTEMPTY ~src:"/e" ~dst:"/a";
      refuse "file onto dir" Errno.EISDIR ~src:"/b/h" ~dst:"/e";
      refuse "dir onto file" Errno.ENOTDIR ~src:"/e" ~dst:"/b/d";
      List.iter
        (fun p -> Alcotest.(check bool) (p ^ " survives") true (Client.exists c p))
        [ "/a"; "/a/b/keep"; "/b/h"; "/b/d"; "/e" ];
      (* a directory onto an empty directory replaces it *)
      Client.rename_exn c ~src:"/e" ~dst:"/a/b/keep";
      Alcotest.(check bool) "moved dir" false (Client.exists c "/e");
      Alcotest.(check bool) "replaced dir" true (Client.exists c "/a/b/keep"))

let test_symlink_resolution () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/real";
      Client.create_file_exn c "/real/data";
      Client.open_exn c ~client:1 "/real/data" Client.WO;
      Client.write_exn c ~client:1 "/real/data" ~offset:0 (Data.of_string "via link");
      Client.close_exn c ~client:1 "/real/data";
      Client.symlink_exn c ~target:"/real" "/alias";
      Alcotest.(check string) "readlink" "/real" (Client.readlink_exn c "/alias");
      let d = Client.read_exn c ~client:9 "/alias/data" ~offset:0 ~bytes:8 in
      Alcotest.(check string) "followed" "via link" (Data.to_string d))

let test_symlink_loop_detected () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.symlink_exn c ~target:"/l2" "/l1";
      Client.symlink_exn c ~target:"/l1" "/l2";
      match Client.read c ~client:1 "/l1/x" ~offset:0 ~bytes:1 with
      | Error (Errno.ELOOP | Errno.ENOENT) -> ()
      | _ -> Alcotest.fail "loop must be ELOOP")

let test_stat_fields () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.mkdir_exn c "/dir";
      let st = Client.stat_exn c "/dir" in
      Alcotest.(check bool) "dir kind" true (st.Client.st_kind = Inode.Directory);
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0 (Data.of_string "xyz");
      let st2 = Client.stat_exn c "/f" in
      Alcotest.(check int) "size" 3 st2.Client.st_size;
      Alcotest.(check bool) "file kind" true (st2.Client.st_kind = Inode.Regular))

let test_fsync_then_data_on_disk () =
  run_fs (fun s ->
      let c, _ = make_client s in
      let reg = (Client.fsys c).Fsys.registry in
      Client.open_exn c ~client:1 "/f" Client.WO;
      Client.write_exn c ~client:1 "/f" ~offset:0
        (Data.of_string (String.make 8192 'd'));
      Client.fsync_exn c "/f";
      match Capfs_stats.Registry.find reg "cache.flushed_blocks" with
      | Some st ->
        Alcotest.(check int) "two blocks flushed" 2
          (Capfs_stats.Stat.count st)
      | None -> Alcotest.fail "stat missing")

let test_persistence_across_remount () =
  (* PFS path: write through the whole stack, sync, then rebuild every
     component from the disk image alone. *)
  run_fs (fun s ->
      let drv =
        Driver.create s
          (Driver.mem_transport ~sector_bytes:512 ~total_sectors:16384 s ())
      in
      let () =
        let layout =
          Lfs.format_and_mount ~config:lfs_config s drv ~block_bytes:4096
        in
        let fs = Fsys.create ~cache_config ~layout s in
        let c = Client.create fs in
        Client.mkdir_exn c "/persist";
        Client.open_exn c ~client:1 "/persist/f" Client.WO;
        Client.write_exn c ~client:1 "/persist/f" ~offset:0
          (Data.of_string "survives remount");
        Client.close_exn c ~client:1 "/persist/f";
        Client.symlink_exn c ~target:"/persist/f" "/link";
        Client.sync_exn c
      in
      let layout2 = Lfs.mount ~config:lfs_config s drv in
      let fs2 = Fsys.create ~cache_config ~layout:layout2 s in
      let c2 = Client.create fs2 in
      let d = Client.read_exn c2 ~client:1 "/persist/f" ~offset:0 ~bytes:50 in
      Alcotest.(check string) "data" "survives remount" (Data.to_string d);
      Alcotest.(check string) "symlink" "/persist/f"
        (Client.readlink_exn c2 "/link");
      let names = Client.readdir_exn c2 "/" |> List.map (fun e -> e.Dir.name) in
      Alcotest.(check (list string)) "root entries" [ "link"; "persist" ] names)

let test_multimedia_prefetch () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.create_file_exn c ~kind:Inode.Multimedia "/movie";
      Client.open_exn c ~client:1 "/movie" Client.RW;
      Client.write_exn c ~client:1 "/movie" ~offset:0
        (Data.of_string (String.make (64 * 1024) 'm'));
      Client.fsync_exn c "/movie";
      (* drop the cache by reading lots of other data *)
      Client.open_exn c ~client:1 "/filler" Client.WO;
      Client.write_exn c ~client:1 "/filler" ~offset:0
        (Data.of_string (String.make (256 * 1024) 'f'));
      (* read the start; the active file's fibre preloads ahead *)
      ignore (Client.read_exn c ~client:1 "/movie" ~offset:0 ~bytes:4096);
      Sched.sleep s 0.2;
      let cache = (Client.fsys c).Fsys.cache in
      let movie_ino = (Client.stat_exn c "/movie").Client.st_ino in
      let cached = List.length (Cache.keys_of_file cache movie_ino) in
      (* the whole 64 KB file fits inside the prefetch window *)
      let expected = Stdlib.min File.mm_window_blocks (64 * 1024 / 4096) in
      if cached < expected then
        Alcotest.failf "prefetch window not resident: %d blocks" cached;
      Client.close_exn c ~client:1 "/movie")

let test_concurrent_clients_isolated_handles () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:1 "/shared" Client.WO;
      Client.open_exn c ~client:2 "/shared" Client.RO;
      Alcotest.(check int) "two handles" 2 (Client.open_handles c);
      Client.close_exn c ~client:1 "/shared";
      (* client 2's handle still valid *)
      ignore (Client.read_exn c ~client:2 "/shared" ~offset:0 ~bytes:0);
      Client.close_exn c ~client:2 "/shared";
      Alcotest.(check int) "all closed" 0 (Client.open_handles c);
      match Client.close_ c ~client:2 "/shared" with
      | Error Errno.EBADF -> ()
      | _ -> Alcotest.fail "double close must be EBADF")

let test_close_all () =
  run_fs (fun s ->
      let c, _ = make_client s in
      Client.open_exn c ~client:7 "/a" Client.WO;
      Client.open_exn c ~client:7 "/b" Client.WO;
      Client.open_exn c ~client:8 "/c" Client.WO;
      Client.close_all_exn c ~client:7;
      Alcotest.(check int) "only client 8 remains" 1 (Client.open_handles c))

let test_many_files_under_pressure () =
  (* More dirty data than the cache holds: demand flushing and the LFS
     log keep everything consistent. *)
  run_fs (fun s ->
      let c, _ = make_client ~sectors:65536 s in
      Client.mkdir_exn c "/load";
      for i = 0 to 49 do
        let path = Printf.sprintf "/load/f%d" i in
        Client.open_exn c ~client:1 path Client.WO;
        Client.write_exn c ~client:1 path ~offset:0
          (Data.of_string (String.make 12288 (Char.chr (65 + (i mod 26)))));
        Client.close_exn c ~client:1 path
      done;
      for i = 0 to 49 do
        let path = Printf.sprintf "/load/f%d" i in
        let d = Client.read_exn c ~client:1 path ~offset:0 ~bytes:12288 in
        Alcotest.(check string)
          (Printf.sprintf "file %d" i)
          (String.make 12288 (Char.chr (65 + (i mod 26))))
          (Data.to_string d)
      done)

let prop_random_fs_operations_consistent =
  (* Random mixes of client operations against a reference model. *)
  QCheck.Test.make ~name:"client ops agree with a model" ~count:25
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (pair (int_range 0 4) (int_range 0 5)))
    (fun ops ->
      let ok = ref true in
      let s = Sched.create ~clock:`Virtual () in
      ignore
        (Sched.spawn s (fun () ->
             let c, _ = make_client ~sectors:65536 s in
             let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
             let path i = Printf.sprintf "/f%d" i in
             List.iteri
               (fun n (file, action) ->
                 let p = path file in
                 match action with
                 | 0 | 1 | 2 ->
                   (* write n-dependent contents *)
                   let contents = Printf.sprintf "v%d-%d" n file in
                   Client.write_exn c ~client:1 p ~offset:0
                     (Data.of_string contents);
                   (* model: overwrite prefix semantics *)
                   let old =
                     Option.value ~default:"" (Hashtbl.find_opt model p)
                   in
                   let merged =
                     if String.length old > String.length contents then
                       contents
                       ^ String.sub old (String.length contents)
                           (String.length old - String.length contents)
                     else contents
                   in
                   Hashtbl.replace model p merged
                 | 3 ->
                   if Hashtbl.mem model p then begin
                     Client.delete_exn c p;
                     Hashtbl.remove model p
                   end
                 | 4 ->
                   if Hashtbl.mem model p then
                     Client.truncate_exn c p ~size:2;
                   (match Hashtbl.find_opt model p with
                   | Some v ->
                     Hashtbl.replace model p
                       (String.sub v 0 (Stdlib.min 2 (String.length v)))
                   | None -> ())
                 | _ -> ())
               ops;
             (* verify every model file reads back exactly *)
             Hashtbl.iter
               (fun p v ->
                 let d =
                   Client.read_exn c ~client:1 p ~offset:0 ~bytes:(String.length v)
                 in
                 if Data.to_string d <> v then ok := false)
               model));
      Sched.run s;
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_random_fs_operations_consistent ]

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "short read at eof" `Quick test_read_beyond_eof_is_short;
    Alcotest.test_case "partial block rmw" `Quick test_partial_block_rmw;
    Alcotest.test_case "write spanning blocks" `Quick
      test_write_spanning_blocks;
    Alcotest.test_case "mkdir nested + readdir" `Quick
      test_mkdir_nested_and_readdir;
    Alcotest.test_case "namespace errors" `Quick test_namespace_errors;
    Alcotest.test_case "delete while open" `Quick
      test_delete_while_open_unix_semantics;
    Alcotest.test_case "truncate shrinks + absorbs" `Quick
      test_truncate_shrinks_and_absorbs;
    Alcotest.test_case "rename" `Quick test_rename_moves_and_replaces;
    Alcotest.test_case "symlink resolution" `Quick test_symlink_resolution;
    Alcotest.test_case "symlink loop" `Quick test_symlink_loop_detected;
    Alcotest.test_case "stat fields" `Quick test_stat_fields;
    Alcotest.test_case "fsync writes blocks" `Quick test_fsync_then_data_on_disk;
    Alcotest.test_case "persistence across remount" `Quick
      test_persistence_across_remount;
    Alcotest.test_case "multimedia prefetch" `Quick test_multimedia_prefetch;
    Alcotest.test_case "per-client handles" `Quick
      test_concurrent_clients_isolated_handles;
    Alcotest.test_case "close_all" `Quick test_close_all;
    Alcotest.test_case "many files under pressure" `Quick
      test_many_files_under_pressure;
  ]
  @ qsuite
