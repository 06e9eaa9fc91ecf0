(* Sprite-style client caching on a simulated network (the paper's §3
   future work): PFS's leased client cache, every frame charged to a
   simulated 10 Mbit/s Ethernet on its way to the in-process server.
   Local hits, network traffic and time saved, sequential write
   sharing, caching resuming once sharing ends, and delayed writes
   flushed on close. The cache's protocol mechanics are tested over
   the plain transports in test_cached_client.ml. *)

module Sched = Capfs_sched.Sched
module Netlink = Capfs_ccache.Netlink
module CC = Capfs_pfs.Cached_client

let ok = Test_cached_client.ok

(* [on_link f] runs [f net attach] in a fibre of a fresh Ethernet's
   scheduler, against a one-shard virtual server: [attach id] connects
   client [id] over the link. *)
let on_link f =
  Test_cached_client.with_temp_base 1 (fun path ->
      Test_cached_client.with_virtual_server ~shards:1 path (fun srv ->
          let s = Sched.create ~clock:`Virtual () in
          let net = Netlink.ethernet_10 s in
          let attach client =
            CC.create ~client
              (CC.over_link net (CC.virtual_transport srv ~client))
          in
          ignore (Sched.spawn s (fun () -> f net attach));
          Sched.run s))

(* create the file through a client of its own, which then leaves *)
let prime attach path contents =
  let c = attach 99 in
  ok "prime open" (CC.open_ c path Capfs.Client.WO);
  ok "prime write" (CC.write c path ~offset:0 ~data:contents);
  ok "prime close" (CC.close_ c path);
  CC.disconnect c

let test_local_cache_hits () =
  on_link (fun _ attach ->
      prime attach "/shared" (String.make 8192 's');
      let a = attach 1 in
      ok "open" (CC.open_ a "/shared" Capfs.Client.RO);
      let read () = ok "read" (CC.read a "/shared" ~offset:0 ~count:8192) in
      ignore (read ());
      let remote_first = CC.remote_misses a in
      ignore (read ());
      ignore (read ());
      Alcotest.(check int) "no more remote reads" remote_first
        (CC.remote_misses a);
      Alcotest.(check int) "four local hits" 4 (CC.local_hits a);
      ok "close" (CC.close_ a "/shared");
      CC.disconnect a)

let test_caching_reduces_network_traffic () =
  on_link (fun net attach ->
      prime attach "/bigfile" (String.make 65536 'n');
      let a = attach 1 in
      ok "open" (CC.open_ a "/bigfile" Capfs.Client.RO);
      let read () = ok "read" (CC.read a "/bigfile" ~offset:0 ~count:65536) in
      let before = Netlink.bytes_carried net in
      Alcotest.(check string) "contents" (String.make 65536 'n') (read ());
      let after_first = Netlink.bytes_carried net in
      Alcotest.(check bool) "the first read carries the file" true
        (after_first - before >= 65536);
      for _ = 1 to 5 do
        ignore (read ())
      done;
      Alcotest.(check int) "re-reads move no bytes" after_first
        (Netlink.bytes_carried net);
      ok "close" (CC.close_ a "/bigfile");
      CC.disconnect a)

let test_sequential_write_sharing () =
  on_link (fun _ attach ->
      prime attach "/doc" "version one ";
      let a = attach 1 in
      let b = attach 2 in
      (* B reads and caches v1 *)
      ok "b open" (CC.open_ b "/doc" Capfs.Client.RO);
      let v1 = ok "b read v1" (CC.read b "/doc" ~offset:0 ~count:12) in
      Alcotest.(check string) "v1" "version one " v1;
      ok "b close" (CC.close_ b "/doc");
      (* A rewrites the file *)
      ok "a open" (CC.open_ a "/doc" Capfs.Client.WO);
      ok "a write" (CC.write a "/doc" ~offset:0 ~data:"version two!");
      ok "a close" (CC.close_ a "/doc");
      (* B re-opens: it must not see its old copy *)
      ok "b reopen" (CC.open_ b "/doc" Capfs.Client.RO);
      let v2 = ok "b read v2" (CC.read b "/doc" ~offset:0 ~count:12) in
      Alcotest.(check string) "fresh contents" "version two!" v2;
      ok "b close 2" (CC.close_ b "/doc");
      CC.disconnect a;
      CC.disconnect b)

let test_caching_resumes_after_sharing_ends () =
  on_link (fun _ attach ->
      prime attach "/f" (String.make 4096 'x');
      let a = attach 1 in
      let b = attach 2 in
      let read () = ok "b read" (CC.read b "/f" ~offset:0 ~count:4096) in
      ok "a open" (CC.open_ a "/f" Capfs.Client.WO);
      ok "b open" (CC.open_ b "/f" Capfs.Client.RO);
      ignore (read ());
      Alcotest.(check int) "write-shared: b caches nothing" 0
        (CC.cached_blocks b);
      ok "a close" (CC.close_ a "/f");
      ok "b close" (CC.close_ b "/f");
      (* sharing is over: a new open caches again *)
      ok "b reopen" (CC.open_ b "/f" Capfs.Client.RO);
      ignore (read ());
      ignore (read ());
      Alcotest.(check bool) "hits again" true (CC.local_hits b > 0);
      ok "b close 2" (CC.close_ b "/f");
      CC.disconnect a;
      CC.disconnect b)

let test_delayed_writes_flush_on_close () =
  on_link (fun net attach ->
      let a = attach 1 in
      ok "open" (CC.open_ a "/delayed" Capfs.Client.WO);
      let n0 = Netlink.bytes_carried net in
      ok "write" (CC.write a "/delayed" ~offset:0 ~data:"buffered!");
      Alcotest.(check bool) "dirty locally" true (CC.dirty_blocks a > 0);
      Alcotest.(check int) "nothing on the link yet" n0
        (Netlink.bytes_carried net);
      ok "close" (CC.close_ a "/delayed");
      Alcotest.(check int) "clean after close" 0 (CC.dirty_blocks a);
      Alcotest.(check bool) "close carries the write" true
        (Netlink.bytes_carried net - n0 >= 9);
      (* visible at the server, to another client *)
      let b = attach 50 in
      ok "b open" (CC.open_ b "/delayed" Capfs.Client.RO);
      let d = ok "b read" (CC.read b "/delayed" ~offset:0 ~count:9) in
      Alcotest.(check string) "at the server" "buffered!" d;
      CC.disconnect a;
      CC.disconnect b)

let test_network_time_is_charged () =
  on_link (fun net attach ->
      prime attach "/timed" (String.make 8192 't');
      let a = attach 1 in
      ok "open" (CC.open_ a "/timed" Capfs.Client.RO);
      let read () =
        ignore (ok "read" (CC.read a "/timed" ~offset:0 ~count:8192))
      in
      let t0 = Netlink.now net in
      read ();
      let cold = Netlink.now net -. t0 in
      let t1 = Netlink.now net in
      read ();
      let warm = Netlink.now net -. t1 in
      (* 8 KB at ~1.2 MB/s plus a latency per frame: the cold read costs
         simulated milliseconds; the warm one is free *)
      if cold < 0.005 then Alcotest.failf "cold read too cheap: %.6f" cold;
      Alcotest.(check (float 1e-9)) "warm read free" 0. warm;
      ok "close" (CC.close_ a "/timed");
      CC.disconnect a)

(* Netlink.Frame: the real wire framing under the multi-client PFS
   server. The edge cases a socket actually produces: short reads
   mid-header and mid-payload, oversized length fields, torn frames,
   clean EOF, and interleaved out-of-order replies on one connection. *)

module Frame = Netlink.Frame

let errno = Alcotest.testable Capfs_core.Errno.pp ( = )

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* The exact bytes [Frame.write] puts on the wire, for byte-level
   corruption and dribbling. *)
let frame_bytes f =
  with_socketpair (fun a b ->
      (match Frame.write a f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "frame_bytes: %s" (Capfs_core.Errno.to_string e));
      Unix.close a;
      let buf = Buffer.create 64 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = Unix.read b chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let check_frame msg (want : Frame.t) = function
  | Ok (Some (got : Frame.t)) ->
    Alcotest.(check int) (msg ^ ": req_id") want.Frame.req_id got.Frame.req_id;
    Alcotest.(check int) (msg ^ ": opcode") want.Frame.opcode got.Frame.opcode;
    Alcotest.(check string) (msg ^ ": payload") want.Frame.payload
      got.Frame.payload
  | Ok None -> Alcotest.failf "%s: unexpected EOF" msg
  | Error e -> Alcotest.failf "%s: %s" msg (Capfs_core.Errno.to_string e)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let f1 = { Frame.req_id = 7; opcode = 3; payload = "hello frame" } in
      let f2 = { Frame.req_id = 8; opcode = 5; payload = "" } in
      (match Frame.write a f1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Capfs_core.Errno.to_string e));
      (match Frame.write a f2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Capfs_core.Errno.to_string e));
      Unix.close a;
      check_frame "first" f1 (Frame.read b);
      check_frame "second (empty payload)" f2 (Frame.read b);
      (* and after the last whole frame: a clean EOF, not an error *)
      match Frame.read b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "expected EOF"
      | Error e -> Alcotest.failf "eof: %s" (Capfs_core.Errno.to_string e))

let test_frame_short_reads () =
  (* a dribbling writer: the frame arrives a few bytes at a time, with
     cuts inside the header and inside the payload. The server's reader
     discipline -- one [Splitter.fill] per wakeup on a non-blocking fd,
     parking on wait_readable when drained -- must reassemble it exactly
     (real clock). *)
  let f =
    { Frame.req_id = 42; opcode = 9; payload = String.init 100 Char.chr }
  in
  let bytes = frame_bytes f in
  with_socketpair (fun a b ->
      Unix.set_nonblock b;
      let s = Sched.create ~clock:`Real () in
      let got = ref None in
      let fills = ref 0 in
      ignore
        (Sched.spawn s ~name:"dribbler" (fun () ->
             let n = String.length bytes in
             let step = 3 in
             let off = ref 0 in
             while !off < n do
               let k = min step (n - !off) in
               ignore (Unix.write_substring a bytes !off k);
               off := !off + k;
               Sched.sleep s 0.002
             done));
      ignore
        (Sched.spawn s ~name:"reader" (fun () ->
             let sp = Frame.Splitter.create () in
             let rec loop () =
               match Frame.Splitter.pop sp with
               | Ok None -> (
                 match Frame.Splitter.fill sp b with
                 | Ok (`Short | `Full) ->
                   incr fills;
                   loop ()
                 | Error Capfs_core.Errno.EAGAIN ->
                   Sched.wait_readable s b;
                   loop ()
                 | Ok `Eof -> got := Some (Ok None)
                 | Error e -> got := Some (Error e))
               | r -> got := Some r
             in
             loop ()));
      Sched.run s;
      (match !got with
      | Some r -> check_frame "dribbled" f r
      | None -> Alcotest.fail "reader did not finish");
      (* the frame really did arrive in pieces *)
      Alcotest.(check bool) "several reads" true (!fills > 1))

let test_frame_oversized_payload () =
  with_socketpair (fun a b ->
      let f = { Frame.req_id = 1; opcode = 1; payload = String.make 200 'x' } in
      (match Frame.write a f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Capfs_core.Errno.to_string e));
      (* the reader's cap is authoritative: a length field beyond it is
         refused before any allocation *)
      match Frame.read ~max_payload:64 b with
      | Error e ->
        Alcotest.check errno "oversized refused" Capfs_core.Errno.EINVAL e
      | Ok _ -> Alcotest.fail "oversized payload accepted")

let test_frame_bad_magic () =
  let f = { Frame.req_id = 3; opcode = 2; payload = "p" } in
  let bytes = Bytes.of_string (frame_bytes f) in
  Bytes.set bytes 0 '\xde';
  Bytes.set bytes 1 '\xad';
  with_socketpair (fun a b ->
      ignore (Unix.write a bytes 0 (Bytes.length bytes));
      Unix.close a;
      match Frame.read b with
      | Error e ->
        Alcotest.check errno "bad magic refused" Capfs_core.Errno.EINVAL e
      | Ok _ -> Alcotest.fail "bad magic accepted")

let test_frame_torn () =
  let f = { Frame.req_id = 5; opcode = 4; payload = "torn payload bytes" } in
  let bytes = frame_bytes f in
  let torn_at cut =
    with_socketpair (fun a b ->
        ignore (Unix.write_substring a bytes 0 cut);
        Unix.close a;
        match Frame.read b with
        | Error e ->
          Alcotest.check errno
            (Printf.sprintf "EOF after %d bytes is a torn frame" cut)
            Capfs_core.Errno.EIO e
        | Ok (Some _) -> Alcotest.failf "parsed a frame cut at %d" cut
        | Ok None -> Alcotest.failf "cut at %d read as clean EOF" cut)
  in
  (* mid-header and mid-payload *)
  torn_at 7;
  torn_at (Frame.header_bytes + 4)

let test_frame_interleaved_replies () =
  (* one connection, replies out of order: the req_id is the
     correlation key, exactly what the load generator pipelines on *)
  with_socketpair (fun a b ->
      let replies =
        [
          { Frame.req_id = 11; opcode = 2; payload = "second request's reply" };
          { Frame.req_id = 10; opcode = 1; payload = "first request's reply" };
          { Frame.req_id = 12; opcode = 3; payload = "third" };
        ]
      in
      List.iter
        (fun f ->
          match Frame.write a f with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Capfs_core.Errno.to_string e))
        replies;
      Unix.close a;
      let by_id = Hashtbl.create 4 in
      let rec collect () =
        match Frame.read b with
        | Ok (Some f) ->
          Hashtbl.replace by_id f.Frame.req_id f;
          collect ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "collect: %s" (Capfs_core.Errno.to_string e)
      in
      collect ();
      Alcotest.(check int) "all demuxed" 3 (Hashtbl.length by_id);
      List.iter
        (fun (want : Frame.t) ->
          match Hashtbl.find_opt by_id want.Frame.req_id with
          | Some got ->
            Alcotest.(check string) "payload by req_id" want.Frame.payload
              got.Frame.payload
          | None -> Alcotest.failf "req %d lost" want.Frame.req_id)
        replies)

let suite =
  [
    Alcotest.test_case "local cache hits" `Quick test_local_cache_hits;
    Alcotest.test_case "network traffic saved" `Quick
      test_caching_reduces_network_traffic;
    Alcotest.test_case "sequential write sharing" `Quick
      test_sequential_write_sharing;
    Alcotest.test_case "caching resumes" `Quick
      test_caching_resumes_after_sharing_ends;
    Alcotest.test_case "delayed writes flush on close" `Quick
      test_delayed_writes_flush_on_close;
    Alcotest.test_case "network time charged" `Quick
      test_network_time_is_charged;
    Alcotest.test_case "frame roundtrip + eof" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame short reads" `Quick test_frame_short_reads;
    Alcotest.test_case "frame oversized payload" `Quick
      test_frame_oversized_payload;
    Alcotest.test_case "frame bad magic" `Quick test_frame_bad_magic;
    Alcotest.test_case "frame torn" `Quick test_frame_torn;
    Alcotest.test_case "frame interleaved replies" `Quick
      test_frame_interleaved_replies;
  ]
