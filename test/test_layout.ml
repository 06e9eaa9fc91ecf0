(* Tests for the storage layout: codec, inodes, segmented LFS (log,
   cleaner, checkpoints, roll-forward). *)

open Capfs_layout
module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver

let run_fs f =
  let s = Sched.create ~clock:`Virtual () in
  ignore (Sched.spawn s (fun () -> f s));
  Sched.run s

(* a 4 MB RAM disk: big enough for several segments, small enough to
   force cleaning quickly *)
let mem_driver ?(sectors = 8192) s =
  Driver.create s (Driver.mem_transport ~sector_bytes:512 ~total_sectors:sectors s ())

let small_lfs_config =
  {
    Lfs.seg_blocks = 16;
    checkpoint_blocks = 8;
    cleaner = Lfs.Cost_benefit;
    min_free_segments = 3;
    target_free_segments = 5;
    first_ino = 1;
    ino_stride = 1;
  }

let block_of_char c = Data.of_string (String.make 4096 c)

(* The Layout record is result-typed now; tests treat failure as fatal. *)
let ok = Capfs_core.Errno.ok_exn
let alloc_inode l ~kind = ok (l.Layout.alloc_inode ~kind)
let get_inode l ino = ok (l.Layout.get_inode ino)
let write_blocks l ups = ok (l.Layout.write_blocks ups)
let read_block l f i = ok (l.Layout.read_block f i)
let truncate_l l f ~blocks = ok (l.Layout.truncate f ~blocks)
let adopt_l l f ~blocks = ok (l.Layout.adopt f ~blocks)
let free_inode l ino = ok (l.Layout.free_inode ino)
let sync_l l = ok (l.Layout.sync ())

(* Codec *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create ~capacity:64 in
  Codec.Writer.u8 w 200;
  Codec.Writer.u32 w 123456;
  Codec.Writer.u64 w 987654321012;
  Codec.Writer.f64 w (-3.14159);
  Codec.Writer.string w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 200 (Codec.Reader.u8 r);
  Alcotest.(check int) "u32" 123456 (Codec.Reader.u32 r);
  Alcotest.(check int) "u64" 987654321012 (Codec.Reader.u64 r);
  Alcotest.(check (float 1e-12)) "f64" (-3.14159) (Codec.Reader.f64 r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check int) "drained" 0 (Codec.Reader.remaining r)

let test_codec_truncation_detected () =
  let w = Codec.Writer.create ~capacity:64 in
  Codec.Writer.u64 w 42;
  let s = String.sub (Codec.Writer.contents w) 0 3 in
  let r = Codec.Reader.of_string s in
  try
    ignore (Codec.Reader.u64 r);
    Alcotest.fail "truncated read must raise"
  with Codec.Corrupt _ -> ()

let prop_codec_f64_roundtrip =
  QCheck.Test.make ~name:"codec f64 roundtrip" ~count:300
    QCheck.(float_range (-1e12) 1e12)
    (fun x ->
      let w = Codec.Writer.create ~capacity:64 in
      Codec.Writer.f64 w x;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.f64 r = x)

(* The codec over its whole value range, against a per-byte reference
   encoder: the writer's algorithm before it stored words, kept here as
   the oracle. Every int is a legal [u8]/[u32]/[u64] argument (the
   first two keep the low 8/32 bits), and every float an [f64]. *)
module Ref_codec = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    for i = 0 to 3 do
      u8 b ((v lsr (8 * i)) land 0xff)
    done

  let u64 b v =
    for i = 0 to 7 do
      u8 b ((v lsr (8 * i)) land 0xff)
    done

  let f64 b v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let string b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let pad s ~block_bytes =
    let n = (String.length s + block_bytes - 1) / block_bytes * block_bytes in
    s ^ String.make (n - String.length s) '\000'

  let adler32 s =
    let a = ref 1 and b = ref 0 in
    String.iter
      (fun c ->
        a := (!a + Char.code c) mod 65521;
        b := (!b + !a) mod 65521)
      s;
    (!b lsl 16) lor !a
end

type field = U8 of int | U32 of int | U64 of int | F64 of float | Str of string

let gen_field =
  let open QCheck.Gen in
  let any_int =
    oneof
      [
        int;
        small_signed_int;
        oneofl
          [ 0; 1; -1; 255; 256; (1 lsl 32) - 1; 1 lsl 32; -(1 lsl 32);
            max_int; min_int ];
      ]
  in
  let any_float =
    oneof
      [
        float;
        map Int64.float_of_bits ui64;
        oneofl [ nan; Float.neg nan; infinity; neg_infinity; -0.; 0. ];
      ]
  in
  oneof
    [
      map (fun v -> U8 v) any_int;
      map (fun v -> U32 v) any_int;
      map (fun v -> U64 v) any_int;
      map (fun v -> F64 v) any_float;
      map (fun s -> Str s) (string_size (int_bound 300));
    ]

let prop_codec_matches_reference =
  QCheck.Test.make ~name:"codec matches the per-byte reference" ~count:500
    QCheck.(
      make
        Gen.(
          triple (list_size (int_bound 60) gen_field) (int_bound 300)
            (oneofl [ 1; 7; 64; 512; 4096 ])))
    (fun (fields, capacity, block_bytes) ->
      let w = Codec.Writer.create ~capacity in
      let b = Buffer.create 64 in
      List.iter
        (function
          | U8 v -> Codec.Writer.u8 w v; Ref_codec.u8 b v
          | U32 v -> Codec.Writer.u32 w v; Ref_codec.u32 b v
          | U64 v -> Codec.Writer.u64 w v; Ref_codec.u64 b v
          | F64 v -> Codec.Writer.f64 w v; Ref_codec.f64 b v
          | Str v -> Codec.Writer.string w v; Ref_codec.string b v)
        fields;
      let expect = Buffer.contents b in
      let got = Codec.Writer.contents w in
      let r = Codec.Reader.of_string got in
      let reads_back = function
        | U8 v -> Codec.Reader.u8 r = v land 0xff
        | U32 v -> Codec.Reader.u32 r = v land 0xffff_ffff
        | U64 v -> Codec.Reader.u64 r = v
        | F64 v ->
          Int64.equal
            (Int64.bits_of_float (Codec.Reader.f64 r))
            (Int64.bits_of_float v)
        | Str v -> String.equal (Codec.Reader.string r) v
      in
      got = expect
      && Codec.Writer.length w = String.length expect
      && List.for_all reads_back fields
      && Codec.Reader.remaining r = 0
      && Codec.Writer.crc w = Ref_codec.adler32 expect
      && Bytes.to_string (Codec.Writer.blocks w ~block_bytes)
         = Ref_codec.pad expect ~block_bytes)

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc matches per-byte adler-32" ~count:200
    QCheck.(
      make
        Gen.(
          oneof
            [
              string_size (int_bound 65536);
              map (fun n -> String.make n '\xff') (int_bound 65536);
              map (fun n -> String.make n '\xff') (int_range 5550 5560);
            ]))
    (fun s -> Codec.crc s = Ref_codec.adler32 s)

let test_crc_detects_flip () =
  let s = "the quick brown fox" in
  let flipped = "the quick brown fix" in
  if Codec.crc s = Codec.crc flipped then Alcotest.fail "crc collision"

(* Inode *)

let test_inode_addr_map () =
  let i = Inode.make ~ino:7 ~kind:Inode.Regular ~now:0. in
  Alcotest.(check int) "hole" Inode.addr_none (Inode.get_addr i 5);
  Inode.set_addr i 5 1234;
  Alcotest.(check int) "set" 1234 (Inode.get_addr i 5);
  Alcotest.(check int) "intermediate holes" Inode.addr_none
    (Inode.get_addr i 3);
  Alcotest.(check int) "nblocks" 6 i.Inode.nblocks

let test_inode_truncate_returns_addrs () =
  let i = Inode.make ~ino:7 ~kind:Inode.Regular ~now:0. in
  Inode.set_addr i 0 10;
  Inode.set_addr i 1 11;
  Inode.set_addr i 3 13;
  let dropped = Inode.truncate_blocks i ~blocks:1 in
  Alcotest.(check (list int)) "dropped non-holes" [ 11; 13 ] dropped;
  Alcotest.(check int) "nblocks" 1 i.Inode.nblocks;
  Alcotest.(check int) "kept" 10 (Inode.get_addr i 0)

let prop_inode_roundtrip =
  QCheck.Test.make ~name:"inode serialize/deserialize roundtrip (direct)"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 100000))
    (fun addrs ->
      let i = Inode.make ~ino:42 ~kind:Inode.Directory ~now:1.5 in
      List.iteri (fun k a -> Inode.set_addr i k a) addrs;
      i.Inode.size <- List.length addrs * 4096;
      let w = Codec.Writer.create ~capacity:64 in
      Inode.serialize w i ~indirect:[];
      let i', indirect =
        Inode.deserialize ~block_bytes:4096 (Codec.Writer.contents w)
      in
      indirect = []
      && i'.Inode.ino = 42
      && i'.Inode.size = i.Inode.size
      && i'.Inode.nblocks = i.Inode.nblocks
      && List.for_all
           (fun k -> Inode.get_addr i' k = Inode.get_addr i k)
           (List.init (List.length addrs) Fun.id))

(* LFS *)

let test_lfs_write_read_roundtrip () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l
        [ (f.Inode.ino, 0, block_of_char 'a'); (f.Inode.ino, 1, block_of_char 'b') ];
      Alcotest.(check string) "block 0" (String.make 4096 'a')
        (Data.to_string (read_block l f 0));
      Alcotest.(check string) "block 1" (String.make 4096 'b')
        (Data.to_string (read_block l f 1));
      (* a hole reads back as nothing *)
      Alcotest.(check int) "hole size" 4096 (Data.length (read_block l f 9)))

let test_lfs_persists_across_remount () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let ino =
        let l = Lfs.format_and_mount ~config:small_lfs_config s drv
            ~block_bytes:4096 in
        let f = alloc_inode l ~kind:Inode.Regular in
        f.Inode.size <- 8192;
        l.Layout.update_inode f;
        write_blocks l
          [ (f.Inode.ino, 0, block_of_char 'x');
            (f.Inode.ino, 1, block_of_char 'y') ];
        sync_l l;
        f.Inode.ino
      in
      (* fresh mount from disk state only *)
      let l2 = Lfs.mount ~config:small_lfs_config s drv in
      match get_inode l2 ino with
      | None -> Alcotest.fail "inode lost across remount"
      | Some f ->
        Alcotest.(check int) "size" 8192 f.Inode.size;
        Alcotest.(check string) "block 0" (String.make 4096 'x')
          (Data.to_string (read_block l2 f 0));
        Alcotest.(check string) "block 1" (String.make 4096 'y')
          (Data.to_string (read_block l2 f 1)))

let test_lfs_indirect_blocks_roundtrip () =
  run_fs (fun s ->
      let drv = mem_driver ~sectors:32768 s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      (* more blocks than ndirect (32) forces indirect spill *)
      let n = 50 in
      write_blocks l
        (List.init n (fun i ->
             (f.Inode.ino, i, block_of_char (Char.chr (Char.code 'A' + (i mod 26))))));
      sync_l l;
      let l2 = Lfs.mount ~config:small_lfs_config s drv in
      match get_inode l2 f.Inode.ino with
      | None -> Alcotest.fail "inode lost"
      | Some f' ->
        for i = 0 to n - 1 do
          let expect = String.make 4096 (Char.chr (Char.code 'A' + (i mod 26))) in
          Alcotest.(check string)
            (Printf.sprintf "block %d" i)
            expect
            (Data.to_string (read_block l2 f' i))
        done)

let test_lfs_overwrite_updates_in_log () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l [ (f.Inode.ino, 0, block_of_char '1') ];
      write_blocks l [ (f.Inode.ino, 0, block_of_char '2') ];
      Alcotest.(check string) "latest wins" (String.make 4096 '2')
        (Data.to_string (read_block l f 0)))

let test_lfs_cleaner_preserves_data () =
  run_fs (fun s ->
      (* small disk (2 MB, ~30 segments) so overwrites must trigger
         cleaning *)
      let drv = mem_driver ~sectors:4096 s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      (* Overwrite a small file many times: the log fills with dead
         blocks and the cleaner must run. *)
      for round = 0 to 60 do
        write_blocks l
          (List.init 8 (fun i ->
               (f.Inode.ino, i,
                block_of_char (Char.chr (Char.code 'a' + ((round + i) mod 26))))))
      done;
      let cleanings =
        match List.assoc_opt "cleanings" (l.Layout.layout_stats ()) with
        | Some c -> int_of_float c
        | None -> 0
      in
      if cleanings = 0 then Alcotest.fail "cleaner never ran";
      (* last round was round 60 *)
      for i = 0 to 7 do
        let expect = String.make 4096 (Char.chr (Char.code 'a' + ((60 + i) mod 26))) in
        Alcotest.(check string) (Printf.sprintf "block %d intact" i) expect
          (Data.to_string (read_block l f i))
      done)

let test_lfs_greedy_cleaner_also_works () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let cfg = { small_lfs_config with Lfs.cleaner = Lfs.Greedy } in
      let l = Lfs.format_and_mount ~config:cfg s drv ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      for round = 0 to 60 do
        write_blocks l
          [ (f.Inode.ino, round mod 4, block_of_char 'g') ]
      done;
      Alcotest.(check string) "data intact" (String.make 4096 'g')
        (Data.to_string (read_block l f 0)))

let test_lfs_truncate_frees_segments () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l
        (List.init 20 (fun i -> (f.Inode.ino, i, block_of_char 'z')));
      let free_before = l.Layout.free_blocks () in
      truncate_l l f ~blocks:0;
      ignore free_before;
      Alcotest.(check int) "no mapped blocks" 0
        (List.length (Inode.mapped f));
      Alcotest.(check int) "hole read" 4096
        (Data.length (read_block l f 0)))

let test_lfs_free_inode_forgets () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l [ (f.Inode.ino, 0, block_of_char 'q') ];
      free_inode l f.Inode.ino;
      Alcotest.(check bool) "gone" true (get_inode l f.Inode.ino = None))

let test_lfs_roll_forward_recovers () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let ino =
        let l = Lfs.format_and_mount ~config:small_lfs_config s drv
            ~block_bytes:4096 in
        let f = alloc_inode l ~kind:Inode.Regular in
        write_blocks l [ (f.Inode.ino, 0, block_of_char 'c') ];
        sync_l l;
        (* post-checkpoint writes: enough to seal full segments, then
           "crash" without checkpointing *)
        for i = 0 to 39 do
          write_blocks l [ (f.Inode.ino, 1 + (i mod 20), block_of_char 'd') ]
        done;
        f.Inode.ino
      in
      let l2 = Lfs.mount ~config:small_lfs_config s drv in
      match get_inode l2 ino with
      | None -> Alcotest.fail "inode lost in recovery"
      | Some f ->
        (* the checkpointed block must be there; rolled-forward blocks
           for any sealed segment must read back as 'd' *)
        Alcotest.(check string) "checkpointed block" (String.make 4096 'c')
          (Data.to_string (read_block l2 f 0));
        if f.Inode.nblocks > 1 then begin
          match Inode.get_addr f 1 with
          | a when a = Inode.addr_none -> ()
          | _ ->
            Alcotest.(check string) "rolled-forward block"
              (String.make 4096 'd')
              (Data.to_string (read_block l2 f 1))
        end)

let test_lfs_disk_full_raises () =
  run_fs (fun s ->
      let drv = mem_driver ~sectors:4096 s in
      (* 2 MB disk, 16-block segments: fill it with live data *)
      let cfg = { small_lfs_config with Lfs.min_free_segments = 1;
                  target_free_segments = 2 } in
      let l = Lfs.format_and_mount ~config:cfg s drv ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      (* one batch exceeding the log's capacity: all blocks live, the
         cleaner has nothing to reclaim, the log must report full *)
      match
        l.Layout.write_blocks
          (List.init 600 (fun i -> (f.Inode.ino, i, block_of_char 'f')))
      with
      | Error Capfs_core.Errno.ENOSPC -> ()
      | Ok () -> Alcotest.fail "expected ENOSPC"
      | Error e ->
        Alcotest.failf "expected ENOSPC, got %s" (Capfs_core.Errno.to_string e))

let test_lfs_stats_exposed () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l
        (List.init 40 (fun i -> (f.Inode.ino, i, block_of_char 'k')));
      let stats = l.Layout.layout_stats () in
      List.iter
        (fun k ->
          if not (List.mem_assoc k stats) then
            Alcotest.failf "missing stat %s" k)
        [ "free_segments"; "sealed_segments"; "cleanings"; "log_blocks_written" ];
      let sealed = List.assoc "sealed_segments" stats in
      if sealed < 1. then Alcotest.fail "expected sealed segments")

(* Failure injection: damaged images must be detected, and a torn
   checkpoint must fall back to the other region. *)

let corrupt_sector drv ~lba =
  (* overwrite with garbage *)
  Driver.write_exn drv ~lba (Data.of_string (String.make 512 '\xde'))

let test_lfs_corrupt_superblock_detected () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      let f = alloc_inode l ~kind:Inode.Regular in
      write_blocks l [ (f.Inode.ino, 0, block_of_char 'v') ];
      sync_l l;
      corrupt_sector drv ~lba:0;
      match Lfs.mount ~config:small_lfs_config s drv with
      | _ -> Alcotest.fail "corrupt superblock must be rejected"
      | exception Codec.Corrupt _ -> ())

let test_lfs_torn_checkpoint_falls_back () =
  run_fs (fun s ->
      let drv = mem_driver s in
      let ino =
        let l = Lfs.format_and_mount ~config:small_lfs_config s drv
            ~block_bytes:4096 in
        let f = alloc_inode l ~kind:Inode.Regular in
        write_blocks l [ (f.Inode.ino, 0, block_of_char 'c') ];
        sync_l l;
        (* a second sync writes the alternate region *)
        write_blocks l [ (f.Inode.ino, 1, block_of_char 'd') ];
        sync_l l;
        f.Inode.ino
      in
      (* tear the newer checkpoint region (region A and B alternate; the
         2nd sync went to B at block 9 with checkpoint_blocks = 8) *)
      corrupt_sector drv ~lba:(9 * 8);
      let l2 = Lfs.mount ~config:small_lfs_config s drv in
      match get_inode l2 ino with
      | None -> Alcotest.fail "fallback checkpoint lost the inode"
      | Some f ->
        (* the older checkpoint plus roll-forward still reads block 0 *)
        Alcotest.(check string) "block 0 intact" (String.make 4096 'c')
          (Data.to_string (read_block l2 f 0)))

let test_lfs_adopted_blocks_survive_cleaning_pressure () =
  run_fs (fun s ->
      let drv = mem_driver ~sectors:4096 s in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv
          ~block_bytes:4096 in
      (* adopt a pre-existing file, then churn real writes around it *)
      let old = alloc_inode l ~kind:Inode.Regular in
      adopt_l l old ~blocks:8;
      old.Inode.size <- 8 * 4096;
      l.Layout.update_inode old;
      let churn = alloc_inode l ~kind:Inode.Regular in
      for round = 0 to 40 do
        write_blocks l
          [ (churn.Inode.ino, round mod 6, block_of_char 'w') ]
      done;
      (* the adopted addresses must still be mapped *)
      for i = 0 to 7 do
        if Inode.get_addr old i = Inode.addr_none then
          Alcotest.failf "adopted block %d lost its address" i
      done)

(* Random write/read sequences always read back the last write. *)
let prop_lfs_read_after_write =
  QCheck.Test.make
    ~name:"lfs reads back the last write"
    ~count:30
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (pair (int_range 0 2) (int_range 0 11)))
    (fun ops ->
      let ok = ref true in
      run_fs (fun s ->
          let drv = mem_driver ~sectors:16384 s in
          let l =
            Lfs.format_and_mount ~config:small_lfs_config s drv
              ~block_bytes:4096
          in
          let files = Array.init 3 (fun _ -> alloc_inode l ~kind:Inode.Regular) in
          let model : (int * int, char) Hashtbl.t = Hashtbl.create 64 in
          List.iteri
            (fun i (fidx, blk) ->
              let c = Char.chr (Char.code 'a' + (i mod 26)) in
              write_blocks l [ (files.(fidx).Inode.ino, blk, block_of_char c) ];
              Hashtbl.replace model (fidx, blk) c)
            ops;
          Hashtbl.iter
            (fun (fidx, blk) c ->
              let got = Data.to_string (read_block l files.(fidx) blk) in
              if got <> String.make 4096 c then ok := false)
            model);
      !ok)

(* Metadata reaches the log as its exact bytes padded with simulated
   zeroes. For random inodes (several full indirect blocks among them)
   and summaries of 0-127 entries, the logged payload must read as the
   per-byte reference encoding padded with zero bytes to whole blocks
   ([Ref_codec.pad]), its real bytes must be exactly the structure, and
   the exact body (what [pending] keeps) must decode to the same
   structure. *)
type meta_case = {
  m_nblocks : int;
  m_holes : int list;
  m_seq : int;
  m_entries : Lfs.entry list;
}

let real_bytes (d : Data.t) =
  match d with
  | Data.Real b -> Bytes.length b
  | Data.Sim _ -> 0
  | Data.Gather g ->
    List.fold_left
      (fun n (_, seg) ->
        match seg with Data.Real b -> n + Bytes.length b | _ -> n)
      0 g.Data.g_segs

let prop_lfs_metadata_payloads =
  let block_bytes = 4096 in
  let per = Inode.addrs_per_indirect ~block_bytes in
  let gen =
    QCheck.Gen.(
      let* m_nblocks =
        oneof
          [
            int_bound 40;
            int_range Inode.ndirect (Inode.ndirect + (3 * per) + 40);
            return (Inode.ndirect + (3 * per));
          ]
      in
      let* m_holes = list_size (int_bound 20) (int_bound (m_nblocks + 1)) in
      let* m_seq = int_bound 1_000_000 in
      let entry =
        oneof
          [
            map2 (fun i b -> Lfs.E_data (i, b)) (int_bound 100_000) (int_bound 100_000);
            map (fun i -> Lfs.E_inode i) (int_bound 100_000);
            map (fun i -> Lfs.E_indirect i) (int_bound 100_000);
          ]
      in
      let+ m_entries = list_size (int_bound 127) entry in
      { m_nblocks; m_holes; m_seq; m_entries })
  in
  let print m =
    Printf.sprintf "nblocks=%d holes=%d seq=%d entries=%d" m.m_nblocks
      (List.length m.m_holes) m.m_seq (List.length m.m_entries)
  in
  QCheck.Test.make ~name:"lfs metadata payloads are exact and pad to blocks"
    ~count:100 (QCheck.make ~print gen)
    (fun m ->
      let logged_as body reference =
        let d = Lfs.padded ~block_bytes (Data.Real body) in
        Data.length d mod block_bytes = 0
        && real_bytes d = Bytes.length body
        && Data.to_string d = Ref_codec.pad reference ~block_bytes
      in
      let inode = Inode.make ~ino:77 ~kind:Inode.Regular ~now:2.5 in
      for i = 0 to m.m_nblocks - 1 do
        Inode.set_addr inode i (1000 + (3 * i))
      done;
      List.iter
        (fun i -> if i < m.m_nblocks then Inode.set_addr inode i Inode.addr_none)
        m.m_holes;
      inode.Inode.size <- m.m_nblocks * block_bytes;
      let n_ind = (Stdlib.max 0 (m.m_nblocks - Inode.ndirect) + per - 1) / per in
      let indirect = List.init n_ind (fun k -> 500_000 + k) in
      (* the inode, against the per-byte reference *)
      let b = Buffer.create 512 in
      Ref_codec.u64 b 77;
      Ref_codec.u8 b (Inode.kind_to_int Inode.Regular);
      Ref_codec.u64 b inode.Inode.size;
      Ref_codec.u32 b 1;
      Ref_codec.u32 b 0;
      List.iter (Ref_codec.f64 b) [ 2.5; 2.5; 2.5 ];
      Ref_codec.u32 b m.m_nblocks;
      for i = 0 to Stdlib.min m.m_nblocks Inode.ndirect - 1 do
        Ref_codec.u64 b (Inode.get_addr inode i + 1)
      done;
      Ref_codec.u32 b n_ind;
      List.iter (Ref_codec.u64 b) indirect;
      let body = Inode.encode inode ~indirect in
      let inode_ok = logged_as body (Buffer.contents b) in
      let decoded, indirect' =
        Inode.deserialize ~block_bytes (Bytes.to_string body)
      in
      (* its indirect blocks, each full but perhaps the last *)
      let indirect_ok =
        List.for_all
          (fun k ->
            let base = Inode.ndirect + (k * per) in
            let count = Stdlib.min per (m.m_nblocks - base) in
            let b = Buffer.create 4100 in
            Ref_codec.u32 b count;
            for i = base to base + count - 1 do
              Ref_codec.u64 b (Inode.get_addr inode i + 1)
            done;
            let body = Inode.encode_indirect inode ~block_bytes ~k in
            Inode.load_indirect decoded ~block_bytes ~k (Bytes.to_string body);
            logged_as body (Buffer.contents b))
          (List.init n_ind Fun.id)
      in
      let same_inode =
        indirect' = indirect
        && decoded.Inode.nblocks = m.m_nblocks
        && decoded.Inode.size = inode.Inode.size
        && List.for_all
             (fun i -> Inode.get_addr decoded i = Inode.get_addr inode i)
             (List.init m.m_nblocks Fun.id)
      in
      (* the summary *)
      let b = Buffer.create 2200 in
      Ref_codec.string b "SUMM";
      Ref_codec.u64 b m.m_seq;
      Ref_codec.u32 b (List.length m.m_entries);
      List.iter
        (fun e ->
          let tag, ino, blk =
            match e with
            | Lfs.E_data (i, x) -> (0, i, x)
            | Lfs.E_inode i -> (1, i, 0)
            | Lfs.E_indirect i -> (2, i, 0)
          in
          Ref_codec.u8 b tag;
          Ref_codec.u64 b ino;
          Ref_codec.u64 b blk)
        m.m_entries;
      Ref_codec.u32 b (Ref_codec.adler32 (Buffer.contents b));
      let body = Lfs.encode_summary ~seq:m.m_seq m.m_entries in
      let summary_ok =
        logged_as body (Buffer.contents b)
        && Lfs.decode_summary ~seg_blocks:128 (Bytes.to_string body)
           = (m.m_seq, m.m_entries)
      in
      inode_ok && indirect_ok && same_inode && summary_ok)

(* A checkpoint goes to its region as exactly its bytes, padded with
   zeroes to whole blocks: its real bytes parse as a checkpoint with
   nothing left over, and the rest of the write is zero. *)
let test_lfs_checkpoint_payload () =
  let writes = ref [] in
  run_fs (fun s ->
      let mem =
        Driver.mem_transport ~sector_bytes:512 ~total_sectors:8192 s ()
      in
      let recording =
        {
          mem with
          Driver.execute =
            (fun ~queue_empty req ->
              (match (req.Capfs_disk.Iorequest.op, req.Capfs_disk.Iorequest.data) with
              | Capfs_disk.Iorequest.Write, Some d ->
                writes := (req.Capfs_disk.Iorequest.lba, d) :: !writes
              | _ -> ());
              mem.Driver.execute ~queue_empty req);
        }
      in
      let drv = Driver.create s recording in
      let l = Lfs.format_and_mount ~config:small_lfs_config s drv ~block_bytes:4096 in
      for n = 0 to 4 do
        let f = alloc_inode l ~kind:Inode.Regular in
        write_blocks l
          (List.init (1 + (n * 20)) (fun i -> (f.Inode.ino, i, block_of_char 'c')))
      done;
      sync_l l);
  (* regions at blocks 1 and 9 of small_lfs_config, 8 sectors a block *)
  let ckpts = List.filter (fun (lba, _) -> lba = 8 || lba = 72) !writes in
  Alcotest.(check bool) "checkpoints written" true (List.length ckpts >= 2);
  List.iter
    (fun (_, d) ->
      let n = real_bytes d in
      let s = Data.to_string d in
      let r = Codec.Reader.of_string (String.sub s 0 n) in
      Alcotest.(check string) "magic" "CKPT" (Codec.Reader.string r);
      ignore (Codec.Reader.u64 r, Codec.Reader.u64 r, Codec.Reader.f64 r);
      for _ = 1 to Codec.Reader.u32 r do
        ignore (Codec.Reader.u64 r, Codec.Reader.u64 r)
      done;
      for _ = 1 to Codec.Reader.u32 r do
        ignore (Codec.Reader.u32 r, Codec.Reader.u64 r, Codec.Reader.u8 r)
      done;
      for _ = 1 to Codec.Reader.u32 r do
        ignore (Codec.Reader.u64 r);
        for _ = 1 to Codec.Reader.u32 r do
          ignore (Codec.Reader.u64 r)
        done
      done;
      ignore (Codec.Reader.u32 r);
      Alcotest.(check int) "nothing after the crc" 0 (Codec.Reader.remaining r);
      Alcotest.(check int) "whole blocks" 0 (Data.length d mod 4096);
      Alcotest.(check string) "zero padding"
        (String.make (String.length s - n) '\000')
        (String.sub s n (String.length s - n)))
    ckpts

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_codec_f64_roundtrip;
      prop_codec_matches_reference;
      prop_crc_matches_reference;
      prop_inode_roundtrip;
      prop_lfs_read_after_write;
      prop_lfs_metadata_payloads;
    ]

(* Counts read from disk: every reader bounds a stored count by what
   its structure can hold before sizing anything by it. Each case crafts
   one corrupt count with [Codec.Writer] and allows the reader a small
   allocation budget, so a reader that allocates first and checks later
   fails even where its allocation succeeds. A mount's budget covers
   its own tables and the two checkpoint regions it reads (about 80k
   words on this 4 MB volume). *)

let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let expect_corrupt ~budget what f =
  match allocated_words f with
  | Error (Codec.Corrupt _), words ->
    if words > budget then
      Alcotest.failf "%s: refused only after allocating %.0f words (budget %.0f)"
        what words budget
  | Error e, _ -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | Ok _, _ -> Alcotest.failf "%s: accepted" what

let crafted_inode ~nblocks ~n_ind =
  let w = Codec.Writer.create ~capacity:4096 in
  Codec.Writer.u64 w 7;
  Codec.Writer.u8 w (Inode.kind_to_int Inode.Regular);
  Codec.Writer.u64 w (nblocks * 4096);
  Codec.Writer.u32 w 1;
  Codec.Writer.u32 w 0;
  List.iter (Codec.Writer.f64 w) [ 1.; 2.; 3. ];
  Codec.Writer.u32 w nblocks;
  for i = 0 to Stdlib.min nblocks Inode.ndirect - 1 do
    Codec.Writer.u64 w (100 + i)
  done;
  Codec.Writer.u32 w n_ind;
  for i = 0 to Stdlib.min n_ind 8 - 1 do
    Codec.Writer.u64 w (900 + i)
  done;
  Codec.Writer.contents w

let test_inode_counts_bounded () =
  let block_bytes = 4096 in
  let deser s () = Inode.deserialize ~block_bytes s in
  expect_corrupt ~budget:2_000. "nblocks 2^32-1"
    (deser (crafted_inode ~nblocks:0xFFFF_FFFF ~n_ind:0));
  let per = Inode.addrs_per_indirect ~block_bytes in
  let most = Inode.ndirect + (Inode.max_indirect ~block_bytes * per) in
  expect_corrupt ~budget:2_000. "nblocks one past what an inode maps"
    (deser (crafted_inode ~nblocks:(most + 1) ~n_ind:1));
  expect_corrupt ~budget:2_000. "indirect count short of nblocks"
    (deser (crafted_inode ~nblocks:(Inode.ndirect + 8) ~n_ind:0));
  expect_corrupt ~budget:2_000. "indirect count past nblocks"
    (deser (crafted_inode ~nblocks:Inode.ndirect ~n_ind:1));
  let inode, indirect =
    Inode.deserialize ~block_bytes
      (crafted_inode ~nblocks:(Inode.ndirect + 8) ~n_ind:1)
  in
  Alcotest.(check (list int)) "consistent counts accepted" [ 900 ] indirect;
  let indirect_block count =
    let w = Codec.Writer.create ~capacity:4096 in
    Codec.Writer.u32 w count;
    for i = 0 to Stdlib.min count 8 - 1 do
      Codec.Writer.u64 w (2000 + i + 1)
    done;
    Codec.Writer.contents w
  in
  let load count () = Inode.load_indirect inode ~block_bytes ~k:0 (indirect_block count) in
  expect_corrupt ~budget:2_000. "indirect count 2^32-1" (load 0xFFFF_FFFF);
  expect_corrupt ~budget:2_000. "indirect count past addrs_per_indirect"
    (load (per + 1));
  expect_corrupt ~budget:2_000. "indirect count past the inode's blocks"
    (load 9);
  load 8 ();
  Alcotest.(check int) "last mapped block" 2007
    (Inode.get_addr inode (Inode.ndirect + 7))

(* A formatted 4 MB RAM disk of [small_lfs_config]: 1,024 blocks,
   checkpoint regions at 1 and 9, 62 segments of 16 blocks from 17. *)
let small_geometry = (1024, 17, 62)

let with_small_volume f =
  run_fs (fun s ->
      let drv = mem_driver s in
      ignore
        (Lfs.format_and_mount ~config:small_lfs_config s drv ~block_bytes:4096);
      f s drv)

let write_block drv ~addr w =
  Driver.write_exn drv ~lba:(addr * 8)
    (Data.Real (Codec.Writer.blocks w ~block_bytes:4096))

let superblock ~total ~seg_blocks ~nsegs =
  let w = Codec.Writer.create ~capacity:4096 in
  Codec.Writer.string w "CAPLFS01";
  Codec.Writer.u32 w 4096;
  Codec.Writer.u64 w total;
  Codec.Writer.u32 w seg_blocks;
  Codec.Writer.u32 w nsegs;
  Codec.Writer.u64 w 17;
  Codec.Writer.u64 w 1;
  Codec.Writer.u64 w 9;
  Codec.Writer.u32 w 8;
  Codec.Writer.u32 w (Codec.Writer.crc w);
  w

let test_lfs_superblock_counts_bounded () =
  let total, _, nsegs = small_geometry in
  let case what ~total ~nsegs =
    with_small_volume (fun s drv ->
        write_block drv ~addr:0 (superblock ~total ~seg_blocks:16 ~nsegs);
        expect_corrupt ~budget:150_000. what (fun () ->
            Lfs.mount ~config:small_lfs_config s drv))
  in
  case "segment count 2^32-1" ~total ~nsegs:0xFFFF_FFFF;
  case "segment count one past the geometry" ~total ~nsegs:(nsegs + 1);
  case "volume larger than the disk" ~total:(total + 16) ~nsegs:(nsegs + 1);
  with_small_volume (fun s drv ->
      write_block drv ~addr:0 (superblock ~total ~seg_blocks:16 ~nsegs);
      ignore (Lfs.mount ~config:small_lfs_config s drv))

let checkpoint ~n_imap ~nsegs ~n_ind =
  let w = Codec.Writer.create ~capacity:4096 in
  Codec.Writer.string w "CKPT";
  Codec.Writer.u64 w 1000;
  Codec.Writer.u64 w 1;
  Codec.Writer.f64 w 0.;
  Codec.Writer.u32 w n_imap;
  for i = 1 to (if n_imap <= 2000 then n_imap else 0) do
    Codec.Writer.u64 w i;
    Codec.Writer.u64 w (17 + i)
  done;
  Codec.Writer.u32 w nsegs;
  for _ = 1 to Stdlib.min nsegs 100 do
    Codec.Writer.u32 w 0;
    Codec.Writer.u64 w 0;
    Codec.Writer.u8 w 1
  done;
  Codec.Writer.u32 w n_ind;
  Codec.Writer.u32 w (Codec.Writer.crc w);
  w

let test_lfs_checkpoint_counts_bounded () =
  let _, _, nsegs = small_geometry in
  let case what ~n_imap ~nsegs ~n_ind =
    with_small_volume (fun s drv ->
        write_block drv ~addr:1 (checkpoint ~n_imap ~nsegs ~n_ind);
        write_block drv ~addr:9 (checkpoint ~n_imap ~nsegs ~n_ind);
        expect_corrupt ~budget:150_000. what (fun () ->
            Lfs.mount ~config:small_lfs_config s drv))
  in
  case "inode map count 2^32-1" ~n_imap:0xFFFF_FFFF ~nsegs ~n_ind:0;
  case "inode map count past the log's slots" ~n_imap:(nsegs * 15 + 1) ~nsegs
    ~n_ind:0;
  case "segment count unlike the superblock's" ~n_imap:0 ~nsegs:(nsegs + 1)
    ~n_ind:0;
  case "indirect list count 2^32-1" ~n_imap:0 ~nsegs ~n_ind:0xFFFF_FFFF;
  with_small_volume (fun s drv ->
      write_block drv ~addr:1 (checkpoint ~n_imap:0 ~nsegs ~n_ind:0);
      write_block drv ~addr:9 (checkpoint ~n_imap:0 ~nsegs ~n_ind:0);
      ignore (Lfs.mount ~config:small_lfs_config s drv))

(* A summary newer than every checkpoint is rolled forward; one whose
   count exceeds the segment's blocks is corrupt, and skipped. *)
let test_lfs_summary_count_bounded () =
  let _, seg0, nsegs = small_geometry in
  let rolled count =
    let result = ref (-1) in
    with_small_volume (fun s drv ->
        let w = Codec.Writer.create ~capacity:4096 in
        Codec.Writer.string w "SUMM";
        Codec.Writer.u64 w 1_000_000;
        Codec.Writer.u32 w count;
        for i = 0 to count - 1 do
          Codec.Writer.u8 w 0;
          Codec.Writer.u64 w 5;
          Codec.Writer.u64 w i
        done;
        Codec.Writer.u32 w (Codec.Writer.crc w);
        write_block drv ~addr:(seg0 + ((nsegs - 1) * 16)) w;
        match Lfs.recover ~config:small_lfs_config s drv with
        | Ok (_, report) -> result := report.Lfs.r_rolled_segments
        | Error e -> Alcotest.failf "recover: %s" (Capfs_core.Errno.to_string e));
    !result
  in
  Alcotest.(check int) "15 entries roll forward" 1 (rolled 15);
  Alcotest.(check int) "16 entries in a 16-block segment are skipped" 0
    (rolled 16)

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncation detected" `Quick
      test_codec_truncation_detected;
    Alcotest.test_case "crc detects flip" `Quick test_crc_detects_flip;
    Alcotest.test_case "inode addr map" `Quick test_inode_addr_map;
    Alcotest.test_case "inode truncate" `Quick test_inode_truncate_returns_addrs;
    Alcotest.test_case "lfs write/read roundtrip" `Quick
      test_lfs_write_read_roundtrip;
    Alcotest.test_case "lfs persists across remount" `Quick
      test_lfs_persists_across_remount;
    Alcotest.test_case "lfs indirect blocks" `Quick
      test_lfs_indirect_blocks_roundtrip;
    Alcotest.test_case "lfs overwrite in log" `Quick
      test_lfs_overwrite_updates_in_log;
    Alcotest.test_case "lfs cleaner preserves data" `Quick
      test_lfs_cleaner_preserves_data;
    Alcotest.test_case "lfs greedy cleaner" `Quick
      test_lfs_greedy_cleaner_also_works;
    Alcotest.test_case "lfs truncate" `Quick test_lfs_truncate_frees_segments;
    Alcotest.test_case "lfs free inode" `Quick test_lfs_free_inode_forgets;
    Alcotest.test_case "lfs roll-forward recovery" `Quick
      test_lfs_roll_forward_recovers;
    Alcotest.test_case "lfs disk full" `Quick test_lfs_disk_full_raises;
    Alcotest.test_case "lfs stats exposed" `Quick test_lfs_stats_exposed;
    Alcotest.test_case "lfs corrupt superblock" `Quick
      test_lfs_corrupt_superblock_detected;
    Alcotest.test_case "lfs torn checkpoint fallback" `Quick
      test_lfs_torn_checkpoint_falls_back;
    Alcotest.test_case "adopted blocks survive churn" `Quick
      test_lfs_adopted_blocks_survive_cleaning_pressure;
    Alcotest.test_case "inode counts bounded" `Quick test_inode_counts_bounded;
    Alcotest.test_case "lfs superblock counts bounded" `Quick
      test_lfs_superblock_counts_bounded;
    Alcotest.test_case "lfs checkpoint counts bounded" `Quick
      test_lfs_checkpoint_counts_bounded;
    Alcotest.test_case "lfs summary count bounded" `Quick
      test_lfs_summary_count_bounded;
    Alcotest.test_case "lfs checkpoint payload is exact" `Quick
      test_lfs_checkpoint_payload;
  ]
  @ qsuite
