(* The sharded multi-client server: wire codecs, configuration
   grammar, routing, admission control and the merged statistics
   report. Everything here runs under the virtual clock through
   [Server.call]/[Server.drive] — the same execution path the socket
   listener uses under the real clock, exercised deterministically. *)

module Pfs = Capfs_pfs.Pfs
module Server = Capfs_pfs.Server
module Wire = Capfs_pfs.Wire
module Errno = Capfs_core.Errno
module Data = Capfs_disk.Data

let with_temp_base shards f =
  let path = Filename.temp_file "capfs_srv" ".img" in
  let images = List.init shards (fun i -> Printf.sprintf "%s.shard%d" path i) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (path :: images))
    (fun () -> f path)

let server_config ?(shards = 2) ?(admission = 0) path =
  Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Virtual ~shards ~admission
    ~workers:0 ()

let with_server ?shards ?admission path f =
  match Server.create (server_config ?shards ?admission path) with
  | Error e -> Alcotest.failf "Server.create: %s" (Errno.to_string e)
  | Ok t -> Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

let check_reply msg expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %a, got %a" msg Wire.pp_reply expected
      Wire.pp_reply actual

(* Wire codecs *)

let roundtrip_request req =
  let opcode, payload = Wire.encode_request req in
  match Wire.decode_request ~opcode payload with
  | Ok req' ->
    if req <> req' then Alcotest.failf "request did not survive the wire"
  | Error e -> Alcotest.failf "decode_request: %s" (Errno.to_string e)

let test_wire_request_roundtrip () =
  List.iter roundtrip_request
    [
      Wire.Open { client = 7; path = "/a/b"; mode = Capfs.Client.RO };
      Wire.Open { client = 1; path = "/w"; mode = Capfs.Client.WO };
      Wire.Open { client = 2; path = "/rw"; mode = Capfs.Client.RW };
      Wire.Close { client = 7; path = "/a/b" };
      Wire.Read { client = 3; path = "/f"; offset = 4096; count = 8192 };
      Wire.Write { client = 3; path = "/f"; offset = 0; data = "payload tail" };
      Wire.Write { client = 3; path = "/empty"; offset = 12; data = "" };
      Wire.Mkdir "/dir";
      Wire.Delete "/dir/f";
      Wire.Stat "/dir";
      Wire.Sync;
      Wire.Stats;
      Wire.Shutdown;
      Wire.Open_grant { client = 4; path = "/shared/f"; mode = Capfs.Client.RO };
      Wire.Open_grant { client = 5; path = "/w"; mode = Capfs.Client.RW };
      Wire.Writeback
        {
          client = 4;
          path = "/shared/f";
          size = 8192;
          close = true;
          blocks = [ (0, String.make 4096 'a'); (4096, String.make 4096 'b') ];
        };
      Wire.Writeback
        { client = 4; path = "/shared/f"; size = 0; close = false; blocks = [] };
    ]

let roundtrip_reply ~opcode reply =
  let payload = Wire.encode_reply reply in
  match Wire.decode_reply ~opcode payload with
  | Ok reply' -> check_reply "reply did not survive the wire" reply reply'
  | Error e -> Alcotest.failf "decode_reply: %s" (Errno.to_string e)

let test_wire_reply_roundtrip () =
  let op req = fst (Wire.encode_request req) in
  roundtrip_reply ~opcode:(op Wire.Sync) Wire.Ok_unit;
  roundtrip_reply
    ~opcode:
      (op (Wire.Read { client = 1; path = "/f"; offset = 0; count = 4 }))
    (Wire.Ok_data (Data.of_string "data"));
  roundtrip_reply ~opcode:(op (Wire.Stat "/f"))
    (Wire.Ok_stat { Wire.size = 12345; is_dir = false });
  roundtrip_reply ~opcode:(op (Wire.Stat "/d"))
    (Wire.Ok_stat { Wire.size = 0; is_dir = true });
  roundtrip_reply ~opcode:(op Wire.Stats) (Wire.Ok_stats "{\"shards\":2}");
  roundtrip_reply ~opcode:(op Wire.Sync) (Wire.Err Errno.EAGAIN);
  roundtrip_reply ~opcode:(op (Wire.Mkdir "/d")) (Wire.Err Errno.ENOENT);
  roundtrip_reply
    ~opcode:
      (op (Wire.Open_grant { client = 1; path = "/f"; mode = Capfs.Client.RO }))
    (Wire.Ok_grant
       { Wire.version = 7; cacheable = true; lease_s = 2.5; size = 40960 });
  roundtrip_reply
    ~opcode:
      (op (Wire.Open_grant { client = 1; path = "/f"; mode = Capfs.Client.WO }))
    (Wire.Ok_grant
       { Wire.version = 1; cacheable = false; lease_s = 0.25; size = 0 })

let test_wire_push_roundtrip () =
  let p = Wire.Invalidate { path = "/shared/doc"; version = 42 } in
  let opcode, payload = Wire.encode_push p in
  match Wire.decode_push ~opcode payload with
  | Ok p' ->
    if p <> p' then Alcotest.fail "push did not survive the wire"
  | Error e -> Alcotest.failf "decode_push: %s" (Errno.to_string e)

let test_wire_batch_roundtrip () =
  let entries =
    [
      (1, 3, "first payload");
      (2, 4, "");
      (Wire.push_req_id, 13, String.make 5000 'z');
    ]
  in
  let s = Wire.Batch.encode entries in
  Alcotest.(check int)
    "encoded_bytes" (String.length s)
    (Wire.Batch.encoded_bytes entries);
  (match Wire.Batch.decode s with
  | Ok entries' ->
    if entries <> entries' then Alcotest.fail "batch did not survive the wire"
  | Error e -> Alcotest.failf "Batch.decode: %s" (Errno.to_string e));
  match Wire.Batch.decode "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty batch must decode to no entries"

let test_wire_batch_errors () =
  let s = Wire.Batch.encode [ (9, 3, "payload") ] in
  (* truncated entry header *)
  (match Wire.Batch.decode (String.sub s 0 (Wire.Batch.entry_header - 1)) with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "truncated header must be EINVAL");
  (* declared payload length runs past the container *)
  (match Wire.Batch.decode (String.sub s 0 (String.length s - 2)) with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "overrunning payload must be EINVAL");
  (* an oversized length field must not be trusted *)
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 6 0x7fffffffl;
  match Wire.Batch.decode (Bytes.to_string b) with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized length must be EINVAL"

let test_wire_decode_errors () =
  (match Wire.decode_request ~opcode:0xFF "" with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown opcode must be EINVAL");
  let opcode, payload =
    Wire.encode_request
      (Wire.Open { client = 1; path = "/x"; mode = Capfs.Client.RO })
  in
  (match
     Wire.decode_request ~opcode
       (String.sub payload 0 (String.length payload - 1))
   with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "truncated payload must be EINVAL");
  match Wire.decode_reply ~opcode:(fst (Wire.encode_request Wire.Sync)) "" with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty reply must be EINVAL"

(* Config grammar *)

let test_config_of_args_roundtrip () =
  let args =
    [
      "size-mb=32";
      "cache-mb=4";
      "trigger=periodic:10:2";
      "scope=single-block";
      "cleaner=greedy";
      "shards=3";
      "admission=16";
      "clock=virtual";
      "coalesce=off";
    ]
  in
  match Pfs.Config.of_args ~base:(Pfs.Config.make ~image:"/tmp/x.img" ()) args
  with
  | Error e -> Alcotest.failf "of_args: %s" (Errno.to_string e)
  | Ok c ->
    Alcotest.(check int) "size" 32 c.Pfs.Config.size_mb;
    Alcotest.(check int) "cache" 4 c.Pfs.Config.cache_mb;
    Alcotest.(check int) "shards" 3 c.Pfs.Config.shards;
    Alcotest.(check int) "admission" 16 c.Pfs.Config.admission;
    Alcotest.(check bool) "coalesce" false c.Pfs.Config.coalesce;
    (match c.Pfs.Config.trigger with
    | Capfs_cache.Cache.Periodic { max_age; scan_interval } ->
      Alcotest.(check (float 1e-9)) "max_age" 10. max_age;
      Alcotest.(check (float 1e-9)) "scan" 2. scan_interval
    | _ -> Alcotest.fail "trigger not periodic");
    Alcotest.(check bool) "scope" true (c.Pfs.Config.scope = `Single_block);
    Alcotest.(check bool) "cleaner" true
      (c.Pfs.Config.cleaner = Capfs_layout.Lfs.Greedy)

let expect_einval what = function
  | Error Errno.EINVAL -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let test_config_rejects_nonsense () =
  let base = Pfs.Config.make ~image:"/tmp/x.img" () in
  expect_einval "unknown key" (Pfs.Config.of_args ~base [ "bogus-knob=1" ]);
  expect_einval "missing =" (Pfs.Config.of_args ~base [ "shards" ]);
  expect_einval "bad int" (Pfs.Config.of_args ~base [ "shards=many" ]);
  expect_einval "bad trigger" (Pfs.Config.of_args ~base [ "trigger=sometimes" ]);
  expect_einval "bad clock" (Pfs.Config.of_args ~base [ "clock=sundial" ]);
  expect_einval "unknown iosched"
    (Pfs.Config.of_args ~base [ "iosched=quantum" ]);
  expect_einval "zero shards" (Pfs.Config.of_args ~base [ "shards=0" ]);
  expect_einval "empty image"
    (Pfs.Config.validate (Pfs.Config.make ~image:"" ()));
  expect_einval "tiny segments"
    (Pfs.Config.validate (Pfs.Config.make ~image:"/tmp/x.img" ~seg_blocks:2 ()))

(* Routing *)

let test_route_stable_and_spread () =
  with_temp_base 4 (fun path ->
      with_server ~shards:4 path (fun t ->
          Alcotest.(check int) "shards" 4 (Server.shards t);
          (* deterministic: same path, same shard, every time *)
          let r1 = Server.route t "/alpha/file" in
          Alcotest.(check int) "stable" r1 (Server.route t "/alpha/file");
          (* first component only: files in one directory colocate *)
          Alcotest.(check int) "colocated" r1 (Server.route t "/alpha/other");
          (* distinct components spread across more than one shard *)
          let hit = Array.make 4 false in
          for i = 0 to 31 do
            hit.(Server.route t (Printf.sprintf "/c%d/f" i)) <- true
          done;
          let used =
            Array.fold_left (fun n b -> if b then n + 1 else n) 0 hit
          in
          if used < 2 then Alcotest.failf "all paths on one shard"))

(* End-to-end through Server.call *)

let test_server_ops_across_shards () =
  with_temp_base 2 (fun path ->
      with_server path (fun t ->
          let dirs = [ "/alpha"; "/beta"; "/gamma" ] in
          List.iter
            (fun d ->
              check_reply ("mkdir " ^ d) Wire.Ok_unit
                (Server.call t (Wire.Mkdir d)))
            dirs;
          List.iteri
            (fun i d ->
              let path = d ^ "/f" in
              let data = Printf.sprintf "shard payload %d" i in
              check_reply "open w" Wire.Ok_unit
                (Server.call t
                   (Wire.Open { client = 1; path; mode = Capfs.Client.WO }));
              check_reply "write" Wire.Ok_unit
                (Server.call t (Wire.Write { client = 1; path; offset = 0; data }));
              check_reply "close" Wire.Ok_unit
                (Server.call t (Wire.Close { client = 1; path }));
              (match
                 Server.call t
                   (Wire.Read
                      { client = 1; path; offset = 0; count = String.length data })
               with
              | Wire.Ok_data d' ->
                Alcotest.(check string) "read back" data (Data.to_string d')
              | r -> Alcotest.failf "read: %a" Wire.pp_reply r);
              match Server.call t (Wire.Stat path) with
              | Wire.Ok_stat { Wire.size; is_dir } ->
                Alcotest.(check int) "stat size" (String.length data) size;
                Alcotest.(check bool) "stat kind" false is_dir
              | r -> Alcotest.failf "stat: %a" Wire.pp_reply r)
            dirs;
          (* a payload of several blocks, each with its own bytes: a read
             comes back as a gather of reply-arena cells, one per block *)
          let bb = Pfs.block_bytes in
          let size = (4 * bb) + (bb / 2) in
          let big =
            String.init size (fun i ->
                Char.chr (33 + ((((i / bb) * 17) + i) mod 90)))
          in
          let path = "/alpha/big" in
          check_reply "open big" Wire.Ok_unit
            (Server.call t
               (Wire.Open { client = 1; path; mode = Capfs.Client.WO }));
          check_reply "write big" Wire.Ok_unit
            (Server.call t
               (Wire.Write { client = 1; path; offset = 0; data = big }));
          check_reply "close big" Wire.Ok_unit
            (Server.call t (Wire.Close { client = 1; path }));
          let read_req ~offset ~count =
            Wire.Read { client = 1; path; offset; count }
          in
          let read_back what ~offset ~count =
            match Server.call t (read_req ~offset ~count) with
            | Wire.Ok_data d ->
              Alcotest.(check string) what
                (String.sub big offset (min count (size - offset)))
                (Data.to_string d)
            | r -> Alcotest.failf "%s: %a" what Wire.pp_reply r
          in
          read_back "unaligned multi-block read" ~offset:((bb / 2) + 3)
            ~count:((3 * bb) + 5);
          read_back "read across EOF" ~offset:((3 * bb) + 100) ~count:(4 * bb);
          (* more whole-file reads in flight than the reply arena's 1024
             cells: the late pieces fall back to heap buffers *)
          let n = (1024 / 5) + 16 in
          let replies = ref [] in
          for _ = 1 to n do
            match
              Server.submit t (read_req ~offset:0 ~count:size)
                ~complete:(fun r -> replies := r :: !replies)
            with
            | Ok () -> ()
            | Error e -> Alcotest.failf "submit read: %s" (Errno.to_string e)
          done;
          Server.drive t;
          Alcotest.(check int) "every read answered" n (List.length !replies);
          let heap_pieces = ref 0 in
          List.iter
            (fun r ->
              (match r with
              | Wire.Ok_data (Data.Gather g as d) ->
                Alcotest.(check string)
                  "concurrent read" big (Data.to_string d);
                List.iter
                  (function _, Data.Real _ -> incr heap_pieces | _ -> ())
                  g.Data.g_segs
              | r -> Alcotest.failf "concurrent read: %a" Wire.pp_reply r);
              Wire.release_reply r)
            !replies;
          if !heap_pieces = 0 then Alcotest.fail "heap fallback never taken";
          (* the released cells serve the next read *)
          read_back "read after release" ~offset:0 ~count:size;
          (* a miss comes back as the same typed errno the API raises *)
          check_reply "absent" (Wire.Err Errno.ENOENT)
            (Server.call t (Wire.Stat "/alpha/absent"));
          (* sync fans out to every shard and reports the worst verdict *)
          check_reply "sync" Wire.Ok_unit (Server.call t Wire.Sync);
          (* in-process shutdown goes through Server.shutdown, not the wire *)
          check_reply "shutdown refused" (Wire.Err Errno.EINVAL)
            (Server.call t Wire.Shutdown)))

let test_server_admission_pushback () =
  with_temp_base 2 (fun path ->
      with_server ~admission:1 path (fun t ->
          (* submit without driving: the first request occupies the
             shard's single admission slot, the second is refused with
             the typed pushback *)
          let sink _ = () in
          let req k =
            Wire.Open
              { client = k; path = "/hot/f"; mode = Capfs.Client.RW }
          in
          (match Server.submit t (req 1) ~complete:sink with
          | Ok () -> ()
          | Error e -> Alcotest.failf "first submit: %s" (Errno.to_string e));
          (match Server.submit t (req 2) ~complete:sink with
          | Error Errno.EAGAIN -> ()
          | Ok () -> Alcotest.fail "second submit must be refused"
          | Error e -> Alcotest.failf "second submit: %s" (Errno.to_string e));
          (* draining the shard frees the slot *)
          Server.drive t;
          match Server.submit t (req 3) ~complete:sink with
          | Ok () -> Server.drive t
          | Error e -> Alcotest.failf "post-drain submit: %s" (Errno.to_string e)))

let test_server_restart_persistence () =
  with_temp_base 2 (fun path ->
      let write_phase () =
        with_server path (fun t ->
            List.iter
              (fun d ->
                check_reply "mkdir" Wire.Ok_unit (Server.call t (Wire.Mkdir d));
                let p = d ^ "/persist" in
                check_reply "open" Wire.Ok_unit
                  (Server.call t
                     (Wire.Open { client = 1; path = p; mode = Capfs.Client.WO }));
                check_reply "write" Wire.Ok_unit
                  (Server.call t
                     (Wire.Write
                        { client = 1; path = p; offset = 0; data = "durable " ^ d }));
                check_reply "close" Wire.Ok_unit
                  (Server.call t (Wire.Close { client = 1; path = p })))
              [ "/one"; "/two"; "/three" ];
            check_reply "sync" Wire.Ok_unit (Server.call t Wire.Sync))
      in
      write_phase ();
      (* a second server over the same shard images mounts, not formats *)
      with_server path (fun t ->
          List.iter
            (fun d ->
              let p = d ^ "/persist" in
              let want = "durable " ^ d in
              match
                Server.call t
                  (Wire.Read
                     { client = 1; path = p; offset = 0; count = 64 })
              with
              | Wire.Ok_data got ->
                Alcotest.(check string) ("reread " ^ p) want (Data.to_string got)
              | r -> Alcotest.failf "reread %s: %a" p Wire.pp_reply r)
            [ "/one"; "/two"; "/three" ]))

let test_server_merged_stats () =
  with_temp_base 2 (fun path ->
      with_server path (fun t ->
          let ops = [ "/a"; "/b"; "/c"; "/d" ] in
          List.iter
            (fun d ->
              check_reply "mkdir" Wire.Ok_unit (Server.call t (Wire.Mkdir d)))
            ops;
          check_reply "sync" Wire.Ok_unit (Server.call t Wire.Sync);
          (* every submission is counted, across all shards *)
          let merged = Server.merged t in
          let count key =
            match Capfs_stats.Snapshot.find merged key with
            | Some e -> e.Capfs_stats.Snapshot.e_count
            | None -> Alcotest.failf "no merged entry for %s" key
          in
          (* 4 mkdirs + one sync fanned out to 2 shards *)
          Alcotest.(check int) "submitted" 6 (count "server.submitted");
          Alcotest.(check int) "completed" 6 (count "server.completed");
          Alcotest.(check int) "rejected" 0 (count "server.rejected");
          (* the wire-level Stats request carries the same report *)
          match Server.call t Wire.Stats with
          | Wire.Ok_stats json ->
            let has s =
              let n = String.length s and m = String.length json in
              let rec go i =
                i + n <= m && (String.sub json i n = s || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "json has shards" true (has "\"shards\": 2");
            Alcotest.(check bool) "json has per_shard" true (has "per_shard");
            Alcotest.(check bool) "json has totals" true (has "totals")
          | r -> Alcotest.failf "stats: %a" Wire.pp_reply r))

let suite =
  [
    Alcotest.test_case "wire request roundtrip" `Quick
      test_wire_request_roundtrip;
    Alcotest.test_case "wire reply roundtrip" `Quick test_wire_reply_roundtrip;
    Alcotest.test_case "wire decode errors" `Quick test_wire_decode_errors;
    Alcotest.test_case "wire push roundtrip" `Quick test_wire_push_roundtrip;
    Alcotest.test_case "wire batch roundtrip" `Quick test_wire_batch_roundtrip;
    Alcotest.test_case "wire batch errors" `Quick test_wire_batch_errors;
    Alcotest.test_case "config of_args roundtrip" `Quick
      test_config_of_args_roundtrip;
    Alcotest.test_case "config rejects nonsense" `Quick
      test_config_rejects_nonsense;
    Alcotest.test_case "routing stable and spread" `Quick
      test_route_stable_and_spread;
    Alcotest.test_case "ops across shards" `Quick test_server_ops_across_shards;
    Alcotest.test_case "admission pushback" `Quick
      test_server_admission_pushback;
    Alcotest.test_case "restart persistence" `Quick
      test_server_restart_persistence;
    Alcotest.test_case "merged stats" `Quick test_server_merged_stats;
  ]
