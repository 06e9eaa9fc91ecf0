(* Tests for the PFS on-line instantiation: real file-backed images and
   the NFS front end. The same framework code runs here over real bytes;
   most tests run PFS under the virtual clock — which is itself the
   paper's central claim in action. *)

module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Pfs = Capfs_pfs.Pfs
module Nfs = Capfs_pfs.Nfs
module File_blockdev = Capfs_pfs.File_blockdev
module Driver = Capfs_disk.Driver
module Inode = Capfs_layout.Inode

let with_temp_image f =
  let path = Filename.temp_file "capfs_test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let in_fibre t f =
  ignore (Sched.spawn t.Pfs.sched ~name:"test" (fun () -> f ()));
  Sched.run t.Pfs.sched

let start_pfs ?(clock = `Virtual) ?(size_mb = 8) ?cache_mb path =
  match
    Pfs.create (Pfs.Config.make ~image:path ~size_mb ?cache_mb ~clock ())
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "Pfs.create: %s" (Capfs_core.Errno.to_string e)

(* File_blockdev *)

let test_blockdev_roundtrip () =
  with_temp_image (fun path ->
      let s = Sched.create ~clock:`Virtual () in
      let transport =
        File_blockdev.transport s ~path ~size_bytes:(1024 * 1024) ()
      in
      let drv = Driver.create s transport in
      ignore
        (Sched.spawn s (fun () ->
             Driver.write_exn drv ~lba:10 (Data.of_string (String.make 1024 'k'));
             let d = Driver.read_exn drv ~lba:10 ~sectors:2 in
             Alcotest.(check string) "roundtrip" (String.make 1024 'k')
               (Data.to_string d)));
      Sched.run s;
      File_blockdev.close transport;
      (* bytes really are in the file *)
      let ic = open_in_bin path in
      seek_in ic (10 * 512);
      let b = really_input_string ic 1024 in
      close_in ic;
      Alcotest.(check string) "on disk" (String.make 1024 'k') b)

let test_blockdev_persists_across_reopen () =
  with_temp_image (fun path ->
      let () =
        let s = Sched.create ~clock:`Virtual () in
        let tr = File_blockdev.transport s ~path ~size_bytes:(512 * 1024) () in
        let drv = Driver.create s tr in
        ignore
          (Sched.spawn s (fun () ->
               Driver.write_exn drv ~lba:5 (Data.of_string (String.make 512 'p'))));
        Sched.run s;
        File_blockdev.close tr
      in
      let s = Sched.create ~clock:`Virtual () in
      let tr = File_blockdev.transport s ~path ~size_bytes:(512 * 1024) () in
      let drv = Driver.create s tr in
      ignore
        (Sched.spawn s (fun () ->
             let d = Driver.read_exn drv ~lba:5 ~sectors:1 in
             Alcotest.(check string) "persisted" (String.make 512 'p')
               (Data.to_string d)));
      Sched.run s;
      File_blockdev.close tr)

(* Full PFS over a real image *)

let test_pfs_format_and_basic_io () =
  with_temp_image (fun path ->
      let t = start_pfs path in
      in_fibre t (fun () ->
          Capfs.Client.mkdir_exn t.Pfs.client "/docs";
          Capfs.Client.open_exn t.Pfs.client ~client:1 "/docs/a" Capfs.Client.WO;
          Capfs.Client.write_exn t.Pfs.client ~client:1 "/docs/a" ~offset:0
            (Data.of_string "pfs data");
          Capfs.Client.close_exn t.Pfs.client ~client:1 "/docs/a";
          let d =
            Capfs.Client.read_exn t.Pfs.client ~client:1 "/docs/a" ~offset:0
              ~bytes:8
          in
          Alcotest.(check string) "read back" "pfs data" (Data.to_string d));
      Pfs.shutdown t)

let test_pfs_survives_restart () =
  with_temp_image (fun path ->
      let () =
        let t = start_pfs path in
        in_fibre t (fun () ->
            Capfs.Client.mkdir_exn t.Pfs.client "/keep";
            Capfs.Client.open_exn t.Pfs.client ~client:1 "/keep/f"
              Capfs.Client.WO;
            Capfs.Client.write_exn t.Pfs.client ~client:1 "/keep/f" ~offset:0
              (Data.of_string "across restarts");
            Capfs.Client.close_exn t.Pfs.client ~client:1 "/keep/f");
        Pfs.shutdown t
      in
      (* second server process: must mount, not format *)
      let t2 = start_pfs path in
      in_fibre t2 (fun () ->
          let d =
            Capfs.Client.read_exn t2.Pfs.client ~client:1 "/keep/f" ~offset:0
              ~bytes:50
          in
          Alcotest.(check string) "mounted, not formatted" "across restarts"
            (Data.to_string d)))

let test_pfs_real_clock_smoke () =
  (* the same stack under the real clock: a small write/read finishes
     promptly in wall-clock time *)
  with_temp_image (fun path ->
      let t = start_pfs ~clock:`Real path in
      let t0 = Unix.gettimeofday () in
      in_fibre t (fun () ->
          Capfs.Client.open_exn t.Pfs.client ~client:1 "/rt" Capfs.Client.WO;
          Capfs.Client.write_exn t.Pfs.client ~client:1 "/rt" ~offset:0
            (Data.of_string "realtime");
          let d =
            Capfs.Client.read_exn t.Pfs.client ~client:1 "/rt" ~offset:0 ~bytes:8
          in
          Alcotest.(check string) "io" "realtime" (Data.to_string d));
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > 5. then Alcotest.failf "PFS took %.1fs wall-clock" elapsed)

(* A multi-block read whose later block misses yields on the disk fill.
   A writer that replaces an earlier block meanwhile releases that
   block's slab cell, and the fill reuses it. The read must still see
   block 0 as it was before the write or after it, never block 1's
   bytes. Each of the eight files is one such race, under its own draw
   of the random run queue. *)
let test_pfs_multiblock_read_races_overwrite () =
  with_temp_image (fun path ->
      let bb = Pfs.block_bytes in
      let files = List.init 8 (Printf.sprintf "/race%d") in
      let t = start_pfs path in
      in_fibre t (fun () ->
          List.iter
            (fun f ->
              Capfs.Client.open_exn t.Pfs.client ~client:1 f Capfs.Client.WO;
              Capfs.Client.write_exn t.Pfs.client ~client:1 f ~offset:0
                (Data.of_string (String.make bb 'A' ^ String.make bb 'B'));
              Capfs.Client.close_exn t.Pfs.client ~client:1 f)
            files);
      Pfs.shutdown t;
      (* remount with a cold cache: every block is on disk only *)
      let t = start_pfs ~cache_mb:1 path in
      let c = t.Pfs.client and s = t.Pfs.sched in
      let reads = ref [] in
      in_fibre t (fun () ->
          List.iter
            (fun f ->
              (* block 0 cached, block 1 still on disk *)
              ignore (Capfs.Client.read_exn c ~client:1 f ~offset:0 ~bytes:bb);
              let pending = ref 2 and both = Sched.new_event s in
              let finish () =
                decr pending;
                if !pending = 0 then Sched.broadcast s both
              in
              ignore
                (Sched.spawn s (fun () ->
                     let d =
                       Capfs.Client.read_exn c ~client:1 f ~offset:0
                         ~bytes:(2 * bb)
                     in
                     reads := (f, Data.to_string d) :: !reads;
                     finish ()));
              ignore
                (Sched.spawn s (fun () ->
                     Capfs.Client.write_exn c ~client:2 f ~offset:0
                       (Data.of_string (String.make bb 'C'));
                     finish ()));
              if !pending > 0 then Sched.await s both)
            files);
      Pfs.shutdown t;
      Alcotest.(check int) "every race ran" (List.length files)
        (List.length !reads);
      List.iter
        (fun (f, got) ->
          let block0 = String.sub got 0 bb in
          if block0 <> String.make bb 'A' && block0 <> String.make bb 'C' then
            Alcotest.failf "%s: block 0 read back as %C..." f block0.[0];
          Alcotest.(check string) (f ^ " block 1") (String.make bb 'B')
            (String.sub got bb bb))
        !reads)

(* NFS front end *)

let nfs_setup path = start_pfs path

let test_nfs_lookup_create_write_read () =
  with_temp_image (fun path ->
      let t = nfs_setup path in
      in_fibre t (fun () ->
          let nfs = t.Pfs.nfs in
          let root = Nfs.mount_root nfs in
          let dir =
            match Nfs.call nfs (Nfs.Mkdir { dir = root; name = "exports" }) with
            | Nfs.Handle (fh, attr) ->
              Alcotest.(check bool) "dir kind" true
                (attr.Nfs.a_kind = Inode.Directory);
              fh
            | _ -> Alcotest.fail "mkdir failed"
          in
          let file =
            match Nfs.call nfs (Nfs.Create { dir; name = "hello" }) with
            | Nfs.Handle (fh, _) -> fh
            | _ -> Alcotest.fail "create failed"
          in
          (match
             Nfs.call nfs
               (Nfs.Write
                  { file; offset = 0; data = Data.of_string "over nfs" })
           with
          | Nfs.Attr a -> Alcotest.(check int) "size" 8 a.Nfs.a_size
          | _ -> Alcotest.fail "write failed");
          (match Nfs.call nfs (Nfs.Read { file; offset = 5; count = 10 }) with
          | Nfs.Payload d ->
            Alcotest.(check string) "read" "nfs" (Data.to_string d)
          | _ -> Alcotest.fail "read failed");
          (match Nfs.call nfs (Nfs.Lookup { dir; name = "hello" }) with
          | Nfs.Handle (fh, _) -> Alcotest.(check int) "lookup" file fh
          | _ -> Alcotest.fail "lookup failed");
          match Nfs.call nfs (Nfs.Lookup { dir; name = "absent" }) with
          | Nfs.Error Nfs.Noent -> ()
          | _ -> Alcotest.fail "expected NOENT"))

let test_nfs_namespace_errors () =
  with_temp_image (fun path ->
      let t = nfs_setup path in
      in_fibre t (fun () ->
          let nfs = t.Pfs.nfs in
          let root = Nfs.mount_root nfs in
          ignore (Nfs.call nfs (Nfs.Mkdir { dir = root; name = "d" }));
          (match Nfs.call nfs (Nfs.Mkdir { dir = root; name = "d" }) with
          | Nfs.Error Nfs.Exist -> ()
          | _ -> Alcotest.fail "expected EXIST");
          let d =
            match Nfs.call nfs (Nfs.Lookup { dir = root; name = "d" }) with
            | Nfs.Handle (fh, _) -> fh
            | _ -> Alcotest.fail "lookup d"
          in
          ignore (Nfs.call nfs (Nfs.Create { dir = d; name = "f" }));
          (match Nfs.call nfs (Nfs.Rmdir { dir = root; name = "d" }) with
          | Nfs.Error Nfs.Notempty -> ()
          | _ -> Alcotest.fail "expected NOTEMPTY");
          (match Nfs.call nfs (Nfs.Remove { dir = root; name = "d" }) with
          | Nfs.Error Nfs.Isdir -> ()
          | _ -> Alcotest.fail "expected ISDIR");
          ignore (Nfs.call nfs (Nfs.Remove { dir = d; name = "f" }));
          match Nfs.call nfs (Nfs.Rmdir { dir = root; name = "d" }) with
          | Nfs.Done -> ()
          | _ -> Alcotest.fail "rmdir should succeed now"))

let test_nfs_rename_readdir_symlink () =
  with_temp_image (fun path ->
      let t = nfs_setup path in
      in_fibre t (fun () ->
          let nfs = t.Pfs.nfs in
          let root = Nfs.mount_root nfs in
          ignore (Nfs.call nfs (Nfs.Create { dir = root; name = "a" }));
          (match
             Nfs.call nfs
               (Nfs.Rename
                  { sdir = root; sname = "a"; ddir = root; dname = "b" })
           with
          | Nfs.Done -> ()
          | _ -> Alcotest.fail "rename failed");
          (match
             Nfs.call nfs
               (Nfs.Symlink { dir = root; name = "l"; target = "/b" })
           with
          | Nfs.Handle (link_fh, _) -> (
            match Nfs.call nfs (Nfs.Readlink link_fh) with
            | Nfs.Link target -> Alcotest.(check string) "target" "/b" target
            | _ -> Alcotest.fail "readlink failed")
          | _ -> Alcotest.fail "symlink failed");
          match Nfs.call nfs (Nfs.Readdir root) with
          | Nfs.Entries entries ->
            Alcotest.(check (list string)) "names" [ "b"; "l" ]
              (List.map fst entries |> List.sort compare)
          | _ -> Alcotest.fail "readdir failed"))

let test_nfs_setattr_truncates_and_commit () =
  with_temp_image (fun path ->
      let t = nfs_setup path in
      in_fibre t (fun () ->
          let nfs = t.Pfs.nfs in
          let root = Nfs.mount_root nfs in
          let file =
            match Nfs.call nfs (Nfs.Create { dir = root; name = "f" }) with
            | Nfs.Handle (fh, _) -> fh
            | _ -> Alcotest.fail "create"
          in
          ignore
            (Nfs.call nfs
               (Nfs.Write
                  { file; offset = 0; data = Data.of_string (String.make 9000 'z') }));
          (match Nfs.call nfs (Nfs.Setattr { file; size = 100 }) with
          | Nfs.Attr a -> Alcotest.(check int) "truncated" 100 a.Nfs.a_size
          | _ -> Alcotest.fail "setattr");
          (match Nfs.call nfs (Nfs.Commit file) with
          | Nfs.Done -> ()
          | _ -> Alcotest.fail "commit");
          match Nfs.call nfs Nfs.Statfs with
          | Nfs.Fsinfo { total_blocks; free_blocks } ->
            if free_blocks <= 0 || free_blocks > total_blocks then
              Alcotest.fail "statfs bounds"
          | _ -> Alcotest.fail "statfs"))

let test_nfs_concurrent_clients () =
  with_temp_image (fun path ->
      let t = nfs_setup path in
      let nfs = t.Pfs.nfs in
      let root = Nfs.mount_root nfs in
      let finished = ref 0 in
      for i = 1 to 8 do
        ignore
          (Sched.spawn t.Pfs.sched (fun () ->
               let name = Printf.sprintf "c%d" i in
               (match Nfs.call nfs (Nfs.Create { dir = root; name }) with
               | Nfs.Handle (fh, _) ->
                 ignore
                   (Nfs.call nfs
                      (Nfs.Write
                         {
                           file = fh;
                           offset = 0;
                           data = Data.of_string (String.make 2048 'w');
                         }))
               | _ -> Alcotest.fail "create");
               incr finished))
      done;
      Sched.run t.Pfs.sched;
      Alcotest.(check int) "all clients served" 8 !finished;
      if Nfs.served nfs < 16 then Alcotest.fail "nfsd served too few calls")

(* Replay a short synthesized trace against PFS over a real backing
   file: the workload generator built for the simulator drives the
   on-line server unchanged, and the volume survives a cold restart. *)
let test_pfs_trace_replay_over_file () =
  with_temp_image (fun path ->
      let records =
        Capfs_trace.Synth.generate ~seed:5 ~duration:30.
          Capfs_trace.Synth.sprite_1a
      in
      let result =
        let t = start_pfs ~size_mb:24 path in
        let r = ref None in
        in_fibre t (fun () ->
            r :=
              Some
                (Capfs_patsy.Replay.run ~speedup:1000. ~real_data:true t.Pfs.client
                   (Capfs_trace.Source.of_array records));
            Capfs_core.Errno.ok_exn (Capfs.Client.sync t.Pfs.client));
        Pfs.shutdown t;
        Option.get !r
      in
      Alcotest.(check bool)
        "replayed some operations" true
        (result.Capfs_patsy.Replay.operations > 0);
      Alcotest.(check int) "no refused operations" 0
        result.Capfs_patsy.Replay.errors;
      (* crash-free close: a cold remount of the image must succeed and
         serve I/O without recovery complaints *)
      let t = start_pfs ~size_mb:24 path in
      in_fibre t (fun () ->
          Capfs.Client.mkdir_exn t.Pfs.client "/after-restart";
          Capfs.Client.open_exn t.Pfs.client ~client:1 "/after-restart/ok"
            Capfs.Client.WO;
          Capfs.Client.write_exn t.Pfs.client ~client:1 "/after-restart/ok"
            ~offset:0 (Data.of_string "alive");
          Capfs.Client.close_exn t.Pfs.client ~client:1 "/after-restart/ok");
      Pfs.shutdown t)

let suite =
  [
    Alcotest.test_case "blockdev roundtrip" `Quick test_blockdev_roundtrip;
    Alcotest.test_case "trace replay over file" `Quick
      test_pfs_trace_replay_over_file;
    Alcotest.test_case "blockdev persists" `Quick
      test_blockdev_persists_across_reopen;
    Alcotest.test_case "pfs format + io" `Quick test_pfs_format_and_basic_io;
    Alcotest.test_case "pfs survives restart" `Quick test_pfs_survives_restart;
    Alcotest.test_case "pfs real clock" `Quick test_pfs_real_clock_smoke;
    Alcotest.test_case "multi-block read races overwrite" `Quick
      test_pfs_multiblock_read_races_overwrite;
    Alcotest.test_case "nfs lookup/create/write/read" `Quick
      test_nfs_lookup_create_write_read;
    Alcotest.test_case "nfs namespace errors" `Quick test_nfs_namespace_errors;
    Alcotest.test_case "nfs rename/readdir/symlink" `Quick
      test_nfs_rename_readdir_symlink;
    Alcotest.test_case "nfs setattr/commit/statfs" `Quick
      test_nfs_setattr_truncates_and_commit;
    Alcotest.test_case "nfs concurrent clients" `Quick
      test_nfs_concurrent_clients;
  ]
