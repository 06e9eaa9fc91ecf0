(* Tests for the PFS on-line instantiation over real file-backed
   images. The same framework code runs here over real bytes; most tests
   run PFS under the virtual clock — which is itself the paper's central
   claim in action. Requests over the wire are covered in test_server. *)

module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Pfs = Capfs_pfs.Pfs
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

(* Two transports on one image each own their descriptor: closing the
   first leaves the second serving, and closing both returns every
   descriptor the two opened. *)
let test_blockdev_two_transports () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then
    with_temp_image (fun path ->
        let count () = Array.length (Sys.readdir fd_dir) in
        let before = count () in
        let s = Sched.create ~clock:`Virtual () in
        let open_one () =
          File_blockdev.transport s ~path ~size_bytes:(512 * 1024) ()
        in
        let t1 = open_one () in
        let t2 = open_one () in
        File_blockdev.close t1;
        let drv = Driver.create s t2 in
        ignore
          (Sched.spawn s (fun () ->
               Driver.write_exn drv ~lba:3 (Data.of_string (String.make 512 'q'));
               let d = Driver.read_exn drv ~lba:3 ~sectors:1 in
               Alcotest.(check string)
                 "second transport still serves" (String.make 512 'q')
                 (Data.to_string d)));
        Sched.run s;
        File_blockdev.close t2;
        Alcotest.(check int) "descriptors returned" before (count ()))

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
   A writer replaces an earlier block meanwhile. The writer installs a
   new payload and nothing is recycled, so the read must see block 0 as
   it was before the write or after it, never block 1's bytes. Each of
   the eight files is one such race, under its own draw of the random
   run queue. *)
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

(* A read of a whole cached block shares the cache's payload, which is
   never written again: rewriting the block installs a new payload, and
   the write to another file after it cannot land in the bytes the read
   holds, however long it keeps them. *)
let test_pfs_read_keeps_bytes_after_rewrite () =
  with_temp_image (fun path ->
      let bb = Pfs.block_bytes in
      let t = start_pfs path in
      let c = t.Pfs.client in
      let write f ch =
        Capfs.Client.open_exn c ~client:1 f Capfs.Client.WO;
        Capfs.Client.write_exn c ~client:1 f ~offset:0
          (Data.of_string (String.make bb ch));
        Capfs.Client.close_exn c ~client:1 f
      in
      in_fibre t (fun () ->
          write "/kept" 'A';
          let d =
            Capfs.Client.read_exn c ~client:1 "/kept" ~offset:0 ~bytes:bb
          in
          write "/kept" 'B';
          write "/other" 'C';
          Alcotest.(check string) "first read" (String.make bb 'A')
            (Data.to_string d);
          Alcotest.(check string) "rewritten block" (String.make bb 'B')
            (Data.to_string
               (Capfs.Client.read_exn c ~client:1 "/kept" ~offset:0 ~bytes:bb)));
      Pfs.shutdown t)

(* A read across a hole and a written block: the hole's piece holds no
   bytes (a simulated payload reads as zeroes), the written block's
   piece does, and the read returns both. *)
let test_pfs_read_across_hole () =
  with_temp_image (fun path ->
      let bb = Pfs.block_bytes in
      let t = start_pfs path in
      let c = t.Pfs.client in
      in_fibre t (fun () ->
          Capfs.Client.open_exn c ~client:1 "/sparse" Capfs.Client.WO;
          Capfs.Client.write_exn c ~client:1 "/sparse" ~offset:bb
            (Data.of_string "tail");
          Alcotest.(check string) "hole, then the written bytes"
            (String.make bb '\000' ^ "tail")
            (Data.to_string
               (Capfs.Client.read_exn c ~client:1 "/sparse" ~offset:0
                  ~bytes:(bb + 4))));
      Pfs.shutdown t)

(* An image that holds data but does not mount as LFS is somebody's
   file system: PFS must answer [Error EIO] and leave every byte as it
   was, never format over it. *)
let check_refused ~size_mb path =
  let before = Digest.to_hex (Digest.file path) in
  (match
     Pfs.create (Pfs.Config.make ~image:path ~size_mb ~clock:`Virtual ())
   with
  | Ok t ->
    Pfs.shutdown t;
    Alcotest.fail "Pfs.create opened the image"
  | Error e ->
    Alcotest.(check string) "typed error" "eio" (Capfs_core.Errno.to_string e));
  Alcotest.(check string) "image bytes unchanged" before
    (Digest.to_hex (Digest.file path))

(* A volume too small for the LFS its knobs describe is refused by
   validation, with a typed EINVAL, before anything is formatted; the
   limit follows the segment size. *)
let test_pfs_refuses_tiny_volume () =
  with_temp_image (fun path ->
      let cfg args = Pfs.Config.of_args ~base:(Pfs.Config.make ~image:path ()) args in
      let einval what = function
        | Error Capfs_core.Errno.EINVAL -> ()
        | Ok _ -> Alcotest.failf "%s: accepted" what
        | Error e ->
          Alcotest.failf "%s: %s" what (Capfs_core.Errno.to_string e)
      in
      einval "size-mb=4" (cfg [ "size-mb=4" ]);
      einval "size-mb=7" (cfg [ "size-mb=7" ]);
      (match cfg [ "size-mb=8" ] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "8 MB holds the default layout");
      (match cfg [ "size-mb=4"; "seg-blocks=8" ] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "4 MB holds 8-block segments");
      einval "create"
        (Pfs.create (Pfs.Config.make ~image:path ~size_mb:4 ~clock:`Virtual ())))

(* Another file system's image, as large as the size pfs is asked to
   open: an LFS image whose superblock magic (after its 4-byte length)
   is overwritten, grown to that size, stands in for one. *)
let test_pfs_refuses_ffs_image () =
  with_temp_image (fun path ->
      let size = 16 * 1024 * 1024 in
      Pfs.shutdown (start_pfs ~size_mb:16 path);
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let head = Bytes.create 12 in
      Alcotest.(check int) "superblock read" 12 (Unix.read fd head 0 12);
      Alcotest.(check string) "LFS magic" "CAPLFS01" (Bytes.sub_string head 4 8);
      ignore (Unix.lseek fd 4 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "UFS2MAGC" 0 8);
      Unix.ftruncate fd size;
      Unix.close fd;
      Alcotest.(check int) "full size" size (Unix.stat path).Unix.st_size;
      check_refused ~size_mb:16 path)

let test_pfs_refuses_lost_checkpoints () =
  with_temp_image (fun path ->
      let t = start_pfs path in
      in_fibre t (fun () ->
          Capfs.Client.mkdir_exn t.Pfs.client "/keep";
          Capfs.Client.open_exn t.Pfs.client ~client:1 "/keep/f"
            Capfs.Client.WO;
          Capfs.Client.write_exn t.Pfs.client ~client:1 "/keep/f" ~offset:0
            (Data.of_string "survivor");
          Capfs.Client.close_exn t.Pfs.client ~client:1 "/keep/f");
      Pfs.shutdown t;
      (* both checkpoint regions sit right after the superblock block *)
      let region =
        Capfs_layout.Lfs.default_config.Capfs_layout.Lfs.checkpoint_blocks
      in
      let zeros = Bytes.make (2 * region * Pfs.block_bytes) '\000' in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd Pfs.block_bytes Unix.SEEK_SET);
      ignore (Unix.write fd zeros 0 (Bytes.length zeros));
      Unix.close fd;
      check_refused ~size_mb:8 path)

(* An image whose checkpoints are intact but whose metadata blocks are
   not: blocks 514-640 are the first segment (after the superblock and
   both checkpoint regions) but for its summary, and overwriting them
   corrupts the inodes the mount loads. Refused with EIO, not an
   uncaught [Codec.Corrupt]. *)
let test_pfs_refuses_corrupt_inodes () =
  with_temp_image (fun path ->
      let t = start_pfs ~size_mb:16 path in
      in_fibre t (fun () ->
          Capfs.Client.mkdir_exn t.Pfs.client "/keep";
          Capfs.Client.open_exn t.Pfs.client ~client:1 "/keep/f"
            Capfs.Client.WO;
          Capfs.Client.write_exn t.Pfs.client ~client:1 "/keep/f" ~offset:0
            (Data.of_string "survivor");
          Capfs.Client.close_exn t.Pfs.client ~client:1 "/keep/f");
      Pfs.shutdown t;
      let junk = Bytes.make ((640 - 514 + 1) * Pfs.block_bytes) '\xab' in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (514 * Pfs.block_bytes) Unix.SEEK_SET);
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      check_refused ~size_mb:16 path)

(* A superblock claiming 2^32-1 segments: the mount sizes its segment
   table from that count only after checking it against the geometry,
   so the server refuses the image instead of allocating for it. The
   count sits at byte 28: the magic (4-byte length, 8 bytes), the block
   size (4), the volume length (8) and the segment size (4). *)
let test_pfs_refuses_impossible_segment_count () =
  with_temp_image (fun path ->
      let t = start_pfs ~size_mb:16 path in
      Pfs.shutdown t;
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 28 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
      Unix.close fd;
      check_refused ~size_mb:16 path)

(* A short image of foreign bytes, opened with a larger size: refused
   without being grown to that size first. *)
let test_pfs_refuses_short_image () =
  with_temp_image (fun path ->
      let rng = Random.State.make [| 64 |] in
      let junk =
        String.init 65536 (fun _ -> Char.chr (Random.State.int rng 256))
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc junk);
      check_refused ~size_mb:8 path)

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
    Alcotest.test_case "blockdev transports own their fds" `Quick
      test_blockdev_two_transports;
    Alcotest.test_case "blockdev persists" `Quick
      test_blockdev_persists_across_reopen;
    Alcotest.test_case "pfs format + io" `Quick test_pfs_format_and_basic_io;
    Alcotest.test_case "pfs survives restart" `Quick test_pfs_survives_restart;
    Alcotest.test_case "pfs refuses a volume too small for its LFS" `Quick
      test_pfs_refuses_tiny_volume;
    Alcotest.test_case "pfs refuses an ffs image" `Quick
      test_pfs_refuses_ffs_image;
    Alcotest.test_case "pfs refuses an image without checkpoints" `Quick
      test_pfs_refuses_lost_checkpoints;
    Alcotest.test_case "pfs refuses a short foreign image" `Quick
      test_pfs_refuses_short_image;
    Alcotest.test_case "pfs refuses corrupt inodes" `Quick
      test_pfs_refuses_corrupt_inodes;
    Alcotest.test_case "pfs real clock" `Quick test_pfs_real_clock_smoke;
    Alcotest.test_case "multi-block read races overwrite" `Quick
      test_pfs_multiblock_read_races_overwrite;
    Alcotest.test_case "read keeps its bytes after a rewrite" `Quick
      test_pfs_read_keeps_bytes_after_rewrite;
    Alcotest.test_case "read across a hole" `Quick test_pfs_read_across_hole;
    Alcotest.test_case "pfs refuses an impossible segment count" `Quick
      test_pfs_refuses_impossible_segment_count;
  ]
