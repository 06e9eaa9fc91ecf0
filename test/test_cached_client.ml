(* The leased client cache over the wire: local hits with zero wire
   traffic, push-driven invalidation (including one racing an in-flight
   read), lease expiry forcing a write-back + renewal, read-your-writes
   across two clients, sequential and concurrent write sharing, delete
   of an open file, incremental frame reassembly, and virtual-vs-real
   parity — the same client state machine over Server.drive and over
   an actual Unix socket served by Server.serve. Server.serve itself is
   held to surviving a client that hangs up mid-reply, closing a
   connection's descriptor at hang-up, serving two shard domains behind
   one socket, answering a 32-request burst from a peer that never sent
   Open_grant, reassembling dribbled and 64 KiB frames, and closing
   only the connection that sent a bad header. The same client over the simulated Ethernet is
   tested in test_ccache.ml. *)

module Pfs = Capfs_pfs.Pfs
module Server = Capfs_pfs.Server
module Wire = Capfs_pfs.Wire
module CC = Capfs_pfs.Cached_client
module Errno = Capfs_core.Errno
module Frame = Capfs_ccache.Netlink.Frame

let bb = Pfs.block_bytes

let ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

let with_temp_base shards f =
  let path = Filename.temp_file "capfs_cc" ".img" in
  let extra =
    List.init shards (fun i -> Printf.sprintf "%s.shard%d" path i)
    @ [ path ^ ".sock" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (path :: extra))
    (fun () -> f path)

let with_virtual_server ?(shards = 2) ?lease_s path f =
  let cfg =
    Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Virtual ~shards ?lease_s ()
  in
  match Server.create cfg with
  | Error e -> Alcotest.failf "Server.create: %s" (Errno.to_string e)
  | Ok t -> Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

let block c = String.make bb c

(* Local hits are free: the second read of a granted file moves no
   frames at all. *)
let test_hits_zero_wire () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          let body = block 'a' ^ block 'b' ^ block 'c' in
          ok "write" (CC.write a "/d/f" ~offset:0 ~data:body);
          Alcotest.(check int) "delayed writes held" 3 (CC.dirty_blocks a);
          ok "close" (CC.close_ a "/d/f");
          (* close flushed the writes and dropped the blocks: the
             reopened read fetches them back from the server *)
          ok "open ro" (CC.open_ a "/d/f" Capfs.Client.RO);
          let r1 = ok "read 1" (CC.read a "/d/f" ~offset:0 ~count:(3 * bb)) in
          Alcotest.(check string) "first read" body r1;
          let msgs_before = CC.msgs_sent a in
          let r2 = ok "read 2" (CC.read a "/d/f" ~offset:0 ~count:(3 * bb)) in
          Alcotest.(check string) "second read" body r2;
          Alcotest.(check int)
            "zero wire traffic on the hit path" msgs_before (CC.msgs_sent a);
          Alcotest.(check bool) "hits counted" true (CC.local_hits a >= 3);
          (* an unaligned read across a block boundary, still local *)
          let r3 =
            ok "read 3" (CC.read a "/d/f" ~offset:(bb - 10) ~count:20)
          in
          Alcotest.(check string)
            "boundary read" (String.make 10 'a' ^ String.make 10 'b') r3;
          Alcotest.(check int)
            "still zero wire traffic" msgs_before (CC.msgs_sent a);
          CC.disconnect a))

(* The three Read frames of a cold multi-block read leave in one
   transport send (one write(2) on a socket). *)
let test_batched_fetch () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          let body = block 'x' ^ block 'y' ^ block 'z' in
          ok "write" (CC.write a "/d/f" ~offset:0 ~data:body);
          ok "close" (CC.close_ a "/d/f");
          CC.disconnect a;
          let b = CC.create ~client:2 (CC.virtual_transport srv ~client:2) in
          ok "open ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          let sends = CC.wire_sends b in
          let msgs = CC.msgs_sent b in
          let r = ok "read" (CC.read b "/d/f" ~offset:0 ~count:(3 * bb)) in
          Alcotest.(check string) "data" body r;
          Alcotest.(check int) "one send" (sends + 1) (CC.wire_sends b);
          Alcotest.(check int) "three messages" (msgs + 3) (CC.msgs_sent b);
          CC.disconnect b))

(* Write-open by one client invalidates the other's cache; the next
   read goes back to the server and sees the new bytes. *)
let test_read_your_writes_virtual () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          let b = CC.create ~client:2 (CC.virtual_transport srv ~client:2) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "a open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write v1" (CC.write a "/d/f" ~offset:0 ~data:(block 'a'));
          ok "a close" (CC.close_ a "/d/f");
          ok "b open ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          let r1 = ok "b read v1" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "b sees v1" (block 'a') r1;
          (* warm: b now serves this locally *)
          ignore (ok "b reread" (CC.read b "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check bool) "b cached" true (CC.cached_blocks b > 0);
          (* a writes again while b holds the file: the write-open pushes
             an Invalidate at b *)
          ok "a reopen wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write v2" (CC.write a "/d/f" ~offset:0 ~data:(block 'b'));
          ok "a close 2" (CC.close_ a "/d/f");
          let r2 = ok "b read v2" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "b sees v2" (block 'b') r2;
          Alcotest.(check bool) "b invalidated" true (CC.invalidations b >= 1);
          (* sequential sharing: b lets go, a rewrites, b comes back *)
          ok "b close" (CC.close_ b "/d/f");
          ok "a reopen wo 3" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write v3" (CC.write a "/d/f" ~offset:0 ~data:(block 'c'));
          ok "a close 3" (CC.close_ a "/d/f");
          ok "b reopen ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          let r3 = ok "b read v3" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "b sees v3" (block 'c') r3;
          Alcotest.(check bool) "b caches again" true (CC.cached_blocks b > 0);
          CC.disconnect a;
          CC.disconnect b))

(* Concurrent write sharing: a reader opening a file a writer holds
   turns both write-through, so every read sees the write before it. *)
let test_concurrent_write_sharing () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let w = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          let r = CC.create ~client:2 (CC.virtual_transport srv ~client:2) in
          ok "mkdir" (CC.mkdir w "/d");
          ok "writer open" (CC.open_ w "/d/log" Capfs.Client.WO);
          ok "reader open" (CC.open_ r "/d/log" Capfs.Client.RO);
          List.iter
            (fun c ->
              ok "write" (CC.write w "/d/log" ~offset:0 ~data:(block c));
              Alcotest.(check int) "written through" 0 (CC.dirty_blocks w);
              let got = ok "read" (CC.read r "/d/log" ~offset:0 ~count:bb) in
              Alcotest.(check string) "reader sees the write" (block c) got;
              Alcotest.(check int) "reader caches nothing" 0
                (CC.cached_blocks r))
            [ 'x'; 'y' ];
          CC.disconnect w;
          CC.disconnect r))

(* Deleting an open file releases the grant: afterwards another client
   caches the path again, and the deleter can create it anew. *)
let test_delete_releases_grant () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          let b = CC.create ~client:2 (CC.virtual_transport srv ~client:2) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "a open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write" (CC.write a "/d/f" ~offset:0 ~data:(block 'a'));
          ok "a delete" (CC.delete a "/d/f");
          ok "b create" (CC.open_ b "/d/f" Capfs.Client.WO);
          ok "b write" (CC.write b "/d/f" ~offset:0 ~data:(block 'b'));
          Alcotest.(check int) "b's write is delayed" 1 (CC.dirty_blocks b);
          ok "b close" (CC.close_ b "/d/f");
          ok "b open ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          let r = ok "b read" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "b's bytes" (block 'b') r;
          ignore (ok "b reread" (CC.read b "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check int) "b caches" 1 (CC.cached_blocks b);
          Alcotest.(check int) "b hits" 1 (CC.local_hits b);
          ok "b close ro" (CC.close_ b "/d/f");
          ok "b delete" (CC.delete b "/d/f");
          ok "a re-create" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write again" (CC.write a "/d/f" ~offset:0 ~data:(block 'c'));
          ok "a close" (CC.close_ a "/d/f");
          CC.disconnect a;
          CC.disconnect b))

(* An invalidation that lands between a fetch's send and its reply: the
   caller is served (the read was issued first), the cache keeps
   nothing, and the handle goes write-through. *)
let test_invalidation_races_inflight_read () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "a open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write" (CC.write a "/d/f" ~offset:0 ~data:(block 'x'));
          ok "a close" (CC.close_ a "/d/f");
          CC.disconnect a;
          (* wrap the transport: after the next send, slip an Invalidate
             into the receive stream ahead of the replies *)
          let base = CC.virtual_transport srv ~client:2 in
          let armed = ref false in
          let inject : Frame.t Queue.t = Queue.create () in
          let inv_opcode, inv_payload =
            Wire.encode_push (Wire.Invalidate { path = "/d/f"; version = 99 })
          in
          let tr =
            {
              base with
              CC.t_send =
                (fun fs ->
                  let r = base.CC.t_send fs in
                  if !armed then begin
                    armed := false;
                    Queue.push
                      {
                        Frame.req_id = Wire.push_req_id;
                        opcode = inv_opcode;
                        payload = inv_payload;
                      }
                      inject
                  end;
                  r);
              t_recv =
                (fun ~block ->
                  match Queue.take_opt inject with
                  | Some f -> Ok (Some f)
                  | None -> base.CC.t_recv ~block);
            }
          in
          let b = CC.create ~client:2 tr in
          ok "b open ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          armed := true;
          let r = ok "b read" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "served despite the race" (block 'x') r;
          Alcotest.(check int) "nothing cached" 0 (CC.cached_blocks b);
          Alcotest.(check int) "invalidation seen" 1 (CC.invalidations b);
          (* the handle is write-through now: another read goes remote *)
          let misses = CC.remote_misses b in
          ignore (ok "b read 2" (CC.read b "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check bool)
            "second read went remote" true
            (CC.remote_misses b > misses);
          CC.disconnect b))

(* A lapsed lease stops local service: the next operation flushes the
   dirty blocks home (Writeback, close=false) and renews the grant. *)
let test_lease_expiry_flushes () =
  with_temp_base 2 (fun path ->
      with_virtual_server ~lease_s:5.0 path (fun srv ->
          let now = ref 0.0 in
          let a =
            CC.create ~client:1
              (CC.virtual_transport ~now:(fun () -> !now) srv ~client:1)
          in
          ok "mkdir" (CC.mkdir a "/d");
          ok "open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "write 1" (CC.write a "/d/f" ~offset:0 ~data:(block 'd'));
          Alcotest.(check int) "delayed write held" 1 (CC.dirty_blocks a);
          (* the lease lapses while the block is dirty *)
          now := 10.0;
          ok "write 2" (CC.write a "/d/f" ~offset:bb ~data:(block 'e'));
          (* block 1 went home in the renewal's write-back; block 2 is
             the only delayed write left *)
          Alcotest.(check int) "flushed at expiry" 1 (CC.dirty_blocks a);
          (* a second client (plain vocabulary) sees block 1 on the
             volume even though a never closed *)
          (match
             Server.call srv
               (Wire.Open { client = 9; path = "/d/f"; mode = Capfs.Client.RO })
           with
          | Wire.Ok_unit -> ()
          | r -> Alcotest.failf "probe open: %a" Wire.pp_reply r);
          (match
             Server.call srv
               (Wire.Read { client = 9; path = "/d/f"; offset = 0; count = bb })
           with
          | Wire.Ok_data d ->
            Alcotest.(check string)
              "flush visible" (block 'd')
              (Capfs_disk.Data.to_string d)
          | r -> Alcotest.failf "probe read: %a" Wire.pp_reply r);
          ignore
            (Server.call srv (Wire.Close { client = 9; path = "/d/f" }));
          ok "close" (CC.close_ a "/d/f");
          CC.disconnect a))

(* Once the sharing writer departs, a write-through reader recovers
   cacheability at its next lease renewal. *)
let test_caching_resumes () =
  with_temp_base 2 (fun path ->
      with_virtual_server ~lease_s:5.0 path (fun srv ->
          let now = ref 0.0 in
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          let b =
            CC.create ~client:2
              (CC.virtual_transport ~now:(fun () -> !now) srv ~client:2)
          in
          ok "mkdir" (CC.mkdir a "/d");
          ok "a open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write" (CC.write a "/d/f" ~offset:0 ~data:(block 'a'));
          ok "a close" (CC.close_ a "/d/f");
          ok "b open ro" (CC.open_ b "/d/f" Capfs.Client.RO);
          ignore (ok "b warm" (CC.read b "/d/f" ~offset:0 ~count:bb));
          (* a writes while b holds: b is pushed write-through *)
          ok "a reopen wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "a write 2" (CC.write a "/d/f" ~offset:0 ~data:(block 'b'));
          ok "a close 2" (CC.close_ a "/d/f");
          ignore (ok "b read through" (CC.read b "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check int) "b write-through" 0 (CC.cached_blocks b);
          (* the writer is gone; b's lease lapses; renewal re-grants *)
          now := 10.0;
          let r = ok "b read renew" (CC.read b "/d/f" ~offset:0 ~count:bb) in
          Alcotest.(check string) "current data" (block 'b') r;
          Alcotest.(check bool) "b caches again" true (CC.cached_blocks b > 0);
          let msgs = CC.msgs_sent b in
          ignore (ok "b read local" (CC.read b "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check int) "local again" msgs (CC.msgs_sent b);
          CC.disconnect a;
          CC.disconnect b))

(* Namespace mutations by another client keep a granted cache honest:
   a Truncate and then a Rename of the held path each push an
   Invalidate. *)
let test_truncate_and_rename_invalidate () =
  with_temp_base 2 (fun path ->
      with_virtual_server path (fun srv ->
          let a = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
          ok "mkdir" (CC.mkdir a "/d");
          ok "open wo" (CC.open_ a "/d/f" Capfs.Client.WO);
          ok "write" (CC.write a "/d/f" ~offset:0 ~data:(block 'a'));
          ok "close" (CC.close_ a "/d/f");
          ok "open ro" (CC.open_ a "/d/f" Capfs.Client.RO);
          ignore (ok "warm" (CC.read a "/d/f" ~offset:0 ~count:bb));
          Alcotest.(check bool) "cached" true (CC.cached_blocks a > 0);
          let expect_unit what = function
            | Wire.Ok_unit -> ()
            | r -> Alcotest.failf "%s: %a" what Wire.pp_reply r
          in
          expect_unit "truncate"
            (Server.call srv (Wire.Truncate { path = "/d/f"; size = 10 }));
          (* any operation drains pending pushes first *)
          ignore (ok "stat" (CC.stat a "/d"));
          Alcotest.(check int) "invalidated by truncate" 1 (CC.invalidations a);
          Alcotest.(check int) "cache dropped" 0 (CC.cached_blocks a);
          expect_unit "rename"
            (Server.call srv (Wire.Rename { src = "/d/f"; dst = "/d/g" }));
          ignore (ok "stat" (CC.stat a "/d"));
          Alcotest.(check int) "invalidated by rename" 2 (CC.invalidations a);
          CC.disconnect a))

(* Frame.Splitter: frames reassemble whatever the chunking, and a
   desynchronized stream fails sticky. *)
let test_splitter () =
  let open Capfs_ccache.Netlink in
  let f1 = { Frame.req_id = 7; opcode = 3; payload = "hello" } in
  (* the push channel's reserved id sits in the u32 high range: it must
     survive the round trip without sign extension *)
  let f2 =
    { Frame.req_id = Wire.push_req_id; opcode = 4;
      payload = String.make 300 'q' }
  in
  let encode (f : Frame.t) =
    let plen = String.length f.payload in
    let b = Bytes.create (Frame.header_bytes + plen) in
    Frame.blit_header b 0 ~req_id:f.req_id ~opcode:f.opcode ~payload_len:plen;
    Bytes.blit_string f.payload 0 b Frame.header_bytes plen;
    b
  in
  let stream = Bytes.concat Bytes.empty [ encode f1; encode f2 ] in
  (* byte-by-byte *)
  let sp = Frame.Splitter.create () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      Frame.Splitter.feed sp stream i 1;
      match Frame.Splitter.pop sp with
      | Ok (Some f) -> got := f :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "pop: %s" (Errno.to_string e))
    stream;
  (match List.rev !got with
  | [ g1; g2 ] ->
    Alcotest.(check bool) "frame 1" true (g1 = f1);
    Alcotest.(check bool) "frame 2" true (g2 = f2)
  | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l));
  (* both frames in one feed *)
  let sp = Frame.Splitter.create () in
  Frame.Splitter.feed sp stream 0 (Bytes.length stream);
  (match Frame.Splitter.pop sp with
  | Ok (Some g) -> Alcotest.(check bool) "bulk frame 1" true (g = f1)
  | _ -> Alcotest.fail "bulk: first frame missing");
  (match Frame.Splitter.pop sp with
  | Ok (Some g) -> Alcotest.(check bool) "bulk frame 2" true (g = f2)
  | _ -> Alcotest.fail "bulk: second frame missing");
  (match Frame.Splitter.pop sp with
  | Ok None -> ()
  | _ -> Alcotest.fail "bulk: stream should be drained");
  (* bad magic is sticky *)
  let sp = Frame.Splitter.create () in
  Frame.Splitter.feed sp (Bytes.make 16 '\xff') 0 16;
  (match Frame.Splitter.pop sp with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "bad magic must be EINVAL");
  Frame.Splitter.feed sp (encode f1) 0 Frame.header_bytes;
  match Frame.Splitter.pop sp with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "a desynchronized splitter must stay failed"

(* A real-clock server on a Unix socket: Server.serve in its own domain.
   [f srv connect] runs against it; afterwards a wire Shutdown must
   make [serve] return — its clean exit is the acknowledgement. *)
let with_socket_server ~shards path f =
  let cfg = Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Real ~shards () in
  let srv =
    match Server.create cfg with
    | Ok s -> s
    | Error e -> Alcotest.failf "Server.create: %s" (Errno.to_string e)
  in
  let sock = path ^ ".sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 64;
  let server_domain = Domain.spawn (fun () -> Server.serve srv lfd) in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      Capfs_pfs.Loadgen.shutdown (CC.socket_transport (connect ()));
      Domain.join server_domain;
      Unix.close lfd)
    (fun () -> f srv connect)

(* One request as one frame on a blocking socket, and its reply. *)
let raw fd req_id req =
  let opcode, payload = Wire.encode_request req in
  (match Frame.write fd { Frame.req_id; opcode; payload } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "raw send: %s" (Errno.to_string e));
  match Frame.read fd with
  | Ok (Some f) -> (
    Alcotest.(check int) "raw req_id" req_id f.Frame.req_id;
    match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
    | Ok r -> r
    | Error e -> Alcotest.failf "raw decode: %s" (Errno.to_string e))
  | Ok None -> Alcotest.fail "raw: connection closed"
  | Error e -> Alcotest.failf "raw recv: %s" (Errno.to_string e)

let expect what want got =
  if want <> got then
    Alcotest.failf "%s: expected %a, got %a" what Wire.pp_reply want
      Wire.pp_reply got

(* One request as one frame's bytes, for laying bursts and dribbles by
   hand. *)
let frame_string req_id req =
  let opcode, payload = Wire.encode_request req in
  let plen = String.length payload in
  let b = Bytes.create (Frame.header_bytes + plen) in
  Frame.blit_header b 0 ~req_id ~opcode ~payload_len:plen;
  Bytes.blit_string payload 0 b Frame.header_bytes plen;
  Bytes.unsafe_to_string b

(* The next reply on a blocking socket, which must answer [req_id]. *)
let reply_to fd req_id =
  match Frame.read fd with
  | Ok (Some f) -> (
    Alcotest.(check int) "reply req_id" req_id f.Frame.req_id;
    match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
    | Ok r -> r
    | Error e -> Alcotest.failf "reply decode: %s" (Errno.to_string e))
  | Ok None -> Alcotest.fail "reply: connection closed"
  | Error e -> Alcotest.failf "reply recv: %s" (Errno.to_string e)

(* A counter of the Stats reply's [wire] object. *)
let wire_counter fd req_id key =
  let module Json = Capfs_stats.Json in
  match raw fd req_id Wire.Stats with
  | Wire.Ok_stats j -> (
    match Result.map (Json.member "wire") (Json.parse j) with
    | Ok (Some wire) -> (
      match Json.member ("wire." ^ key) wire with
      | Some (Json.Num n) -> int_of_float n
      | _ -> Alcotest.failf "no %s in %s" key j)
    | _ -> Alcotest.failf "no wire object in %s" j)
  | r -> Alcotest.failf "stats: %a" Wire.pp_reply r

(* A peer that never sent Open_grant: 32 requests in one write(2) are
   cut out of the server's receive buffer, and every reply comes back
   as a plain frame that the blocking [Frame.read] decodes one at a
   time — as the benchmark's control connection reads them — matched
   by req_id. *)
let test_burst_plain_peer () =
  with_temp_base 1 (fun path ->
      with_socket_server ~shards:1 path (fun _ connect ->
          let fd = connect () in
          let n = 32 in
          let req i = if i mod 2 = 0 then Wire.Stat "/" else Wire.Stat "/none" in
          let burst = String.concat "" (List.init n (fun i -> frame_string (i + 1) (req (i + 1)))) in
          Alcotest.(check int)
            "one write(2)" (String.length burst)
            (Unix.write_substring fd burst 0 (String.length burst));
          let seen = Array.make (n + 1) false in
          for _ = 1 to n do
            match Frame.read fd with
            | Ok (Some f) -> (
              let id = f.Frame.req_id in
              if id < 1 || id > n || seen.(id) then
                Alcotest.failf "unexpected or repeated reply %d" id;
              seen.(id) <- true;
              match
                (req id, Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload)
              with
              | Wire.Stat "/", Ok (Wire.Ok_stat { Wire.is_dir = true; _ })
              | Wire.Stat "/none", Ok (Wire.Err Errno.ENOENT) ->
                ()
              | _, Ok r -> Alcotest.failf "reply %d: %a" id Wire.pp_reply r
              | _, Error e -> Alcotest.failf "reply %d: %s" id (Errno.to_string e))
            | Ok None -> Alcotest.fail "burst: connection closed"
            | Error e -> Alcotest.failf "burst: %s" (Errno.to_string e)
          done;
          (* a Stats request is counted after its own report *)
          let frames = wire_counter fd (n + 1) "frames_received" in
          Alcotest.(check int) "frames_received = requests sent" n frames;
          let reads = wire_counter fd (n + 2) "reads" in
          if reads > frames then
            Alcotest.failf "%d reads for %d frames" reads frames;
          Unix.close fd))

(* Requests that reach the server in pieces: one dribbled 3 bytes at a
   time, with cuts inside the header and inside the payload, and a
   64 KiB Write that spans many reads. Each is answered once, with the
   right bytes. *)
let test_dribbled_frames () =
  with_temp_base 1 (fun path ->
      with_socket_server ~shards:1 path (fun _ connect ->
          let fd = connect () in
          let dribble step s =
            let off = ref 0 in
            while !off < String.length s do
              let k = min step (String.length s - !off) in
              off := !off + Unix.write_substring fd s !off k;
              Unix.sleepf 0.0005
            done
          in
          let write req_id offset data =
            frame_string req_id
              (Wire.Write { client = 1; path = "/d/f"; offset; data })
          in
          expect "mkdir" Wire.Ok_unit (raw fd 1 (Wire.Mkdir "/d"));
          expect "open" Wire.Ok_unit
            (raw fd 2
               (Wire.Open { client = 1; path = "/d/f"; mode = Capfs.Client.RW }));
          dribble 3 (write 3 0 "dribbled");
          expect "dribbled write" Wire.Ok_unit (reply_to fd 3);
          let big = String.init (64 * 1024) (fun i -> Char.chr (i * 7 mod 251)) in
          dribble 4096 (write 4 8 big);
          expect "64 KiB write" Wire.Ok_unit (reply_to fd 4);
          (* the next reply on the wire answers the next request *)
          (match
             raw fd 5
               (Wire.Read
                  { client = 1; path = "/d/f"; offset = 0; count = 8 + String.length big })
           with
          | Wire.Ok_data d ->
            Alcotest.(check string)
              "read back" ("dribbled" ^ big)
              (Capfs_disk.Data.to_string d)
          | r -> Alcotest.failf "read: %a" Wire.pp_reply r);
          Unix.close fd))

(* A bad magic or an oversized length closes that connection only:
   another connection's Stat is still answered. *)
let test_bad_header_closes_one () =
  with_temp_base 1 (fun path ->
      with_socket_server ~shards:1 path (fun _ connect ->
          let keep = connect () in
          let hostile what hdr =
            let fd = connect () in
            ignore (Unix.write_substring fd hdr 0 (String.length hdr));
            (match Unix.select [ fd ] [] [] 5. with
            | [], _, _ -> Alcotest.failf "%s: connection left open" what
            | _ -> (
              match Frame.read fd with
              | Ok None | Error _ -> ()
              | Ok (Some _) -> Alcotest.failf "%s: answered" what));
            Unix.close fd;
            match raw keep 1 (Wire.Stat "/") with
            | Wire.Ok_stat { Wire.is_dir = true; _ } -> ()
            | r -> Alcotest.failf "after %s: %a" what Wire.pp_reply r
          in
          let oversized = Bytes.create Frame.header_bytes in
          Frame.blit_header oversized 0 ~req_id:1
            ~opcode:(Wire.opcode (Wire.Stat "/"))
            ~payload_len:(Frame.default_max_payload + 1);
          hostile "oversized length" (Bytes.to_string oversized);
          let bad = Bytes.of_string (frame_string 1 (Wire.Stat "/")) in
          Bytes.set_uint16_le bad 0 0xdead;
          hostile "bad magic" (Bytes.to_string bad);
          Unix.close keep))

(* The same client code over a real socket: Server.serve in a second
   domain, Cached_client on a Unix-domain socket. Parity check: the
   hit/miss counters match the virtual-clock run of the same workload. *)
let test_real_socket_parity () =
  with_temp_base 1 (fun path ->
      (* the reference run, virtual clock *)
      let workload cc =
        ok "mkdir" (CC.mkdir cc "/d");
        ok "open wo" (CC.open_ cc "/d/f" Capfs.Client.WO);
        let body = block '1' ^ block '2' in
        ok "write" (CC.write cc "/d/f" ~offset:0 ~data:body);
        ok "close" (CC.close_ cc "/d/f");
        ok "open ro" (CC.open_ cc "/d/f" Capfs.Client.RO);
        let r1 = ok "read 1" (CC.read cc "/d/f" ~offset:0 ~count:(2 * bb)) in
        let r2 = ok "read 2" (CC.read cc "/d/f" ~offset:0 ~count:(2 * bb)) in
        Alcotest.(check string) "read 1" body r1;
        Alcotest.(check string) "read 2" body r2;
        ok "close ro" (CC.close_ cc "/d/f");
        (CC.local_hits cc, CC.remote_misses cc, CC.msgs_sent cc)
      in
      let virtual_counts =
        with_virtual_server ~shards:1 path (fun srv ->
            let cc = CC.create ~client:1 (CC.virtual_transport srv ~client:1) in
            let r = workload cc in
            CC.disconnect cc;
            r)
      in
      Sys.remove (path ^ ".shard0");
      (* the real run: serve on a Unix socket from another domain *)
      with_socket_server ~shards:1 path (fun _ connect ->
          let cc = CC.create ~client:1 (CC.socket_transport (connect ())) in
          let real_counts = workload cc in
          CC.disconnect cc;
          Alcotest.(check (triple int int int))
            "virtual and real runs count identically" virtual_counts
            real_counts;
          (* raw requests over the socket, one frame each *)
          let rfd = connect () in
          (* a Read spanning the block boundary: the server's gathered
             reply must reach the wire whole and in order *)
          (match
             raw rfd 42
               (Wire.Read
                  { client = 7; path = "/d/f"; offset = bb - 3; count = bb })
           with
          | Wire.Ok_data d ->
            Alcotest.(check string) "raw multi-block read"
              (String.make 3 '1' ^ String.make (bb - 3) '2')
              (Capfs_disk.Data.to_string d)
          | r -> Alcotest.failf "raw read: %a" Wire.pp_reply r);
          expect "raw rename" Wire.Ok_unit
            (raw rfd 43 (Wire.Rename { src = "/d/f"; dst = "/d/g" }));
          expect "raw readdir" (Wire.Ok_names [ "g" ])
            (raw rfd 44 (Wire.Readdir "/d"));
          Unix.close rfd))

(* A client that hangs up with replies still owed costs only its own
   connection: the server's write fails (EPIPE, SIGPIPE being ignored)
   and the next client is served as usual. *)
let test_peer_hangup_mid_reply () =
  with_temp_base 1 (fun path ->
      with_socket_server ~shards:1 path (fun _ connect ->
          let a = connect () in
          let size = 64 * 1024 in
          expect "mkdir" Wire.Ok_unit (raw a 1 (Wire.Mkdir "/d"));
          expect "open" Wire.Ok_unit
            (raw a 2
               (Wire.Open
                  { client = 1; path = "/d/f"; mode = Capfs.Client.WO }));
          expect "write" Wire.Ok_unit
            (raw a 3
               (Wire.Write
                  { client = 1; path = "/d/f"; offset = 0;
                    data = String.make size 'p' }));
          expect "close" Wire.Ok_unit
            (raw a 4 (Wire.Close { client = 1; path = "/d/f" }));
          for round = 1 to 3 do
            (* 32 whole-file reads in flight, one reply read, hang up *)
            let b = connect () in
            let opcode, payload =
              Wire.encode_request
                (Wire.Read
                   { client = 2; path = "/d/f"; offset = 0; count = size })
            in
            for req_id = 1 to 32 do
              match Frame.write b { Frame.req_id; opcode; payload } with
              | Ok () -> ()
              | Error e -> Alcotest.failf "pipeline: %s" (Errno.to_string e)
            done;
            (match Frame.read b with
            | Ok (Some _) -> ()
            | Ok None | Error _ ->
              Alcotest.failf "round %d: no first reply" round);
            Unix.close b
          done;
          Unix.close a;
          let c = connect () in
          expect "fresh connection served"
            (Wire.Ok_stat { Wire.size; is_dir = false })
            (raw c 1 (Wire.Stat "/d/f"));
          Unix.close c))

(* A connection's descriptor is closed once its peer hangs up, not kept
   until the server stops. *)
let test_closed_connections_release_fds () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then
    with_temp_base 1 (fun path ->
        with_socket_server ~shards:1 path (fun _ connect ->
            let count () = Array.length (Sys.readdir fd_dir) in
            let before = count () in
            for _ = 1 to 50 do
              let fd = connect () in
              (match raw fd 1 (Wire.Stat "/") with
              | Wire.Ok_stat _ -> ()
              | r -> Alcotest.failf "stat: %a" Wire.pp_reply r);
              Unix.close fd
            done;
            (* the server closes its end when it sees the hang-up *)
            let deadline = Unix.gettimeofday () +. 2. in
            let rec settle () =
              let n = count () in
              if n <= before + 2 || Unix.gettimeofday () > deadline then n
              else begin
                Unix.sleepf 0.01;
                settle ()
              end
            in
            let after = settle () in
            if after > before + 2 then
              Alcotest.failf "50 closed connections left %d descriptors open"
                (after - before)))

(* Two shards on two domains behind one socket. Each of two connections
   works on files of both shards, so requests, replies and pushed
   invalidations cross domains whichever domain hosts the connection. *)
let test_two_shards_over_socket () =
  with_temp_base 2 (fun path ->
      with_socket_server ~shards:2 path (fun srv connect ->
          let dir_on k =
            let rec go i =
              let d = Printf.sprintf "/d%d" i in
              if Server.route srv d = k then d else go (i + 1)
            in
            go 0
          in
          let dirs = [ dir_on 0; dir_on 1 ] in
          let files = List.map (fun d -> d ^ "/f") dirs in
          let a = CC.create ~client:1 (CC.socket_transport (connect ())) in
          let b = connect () in
          let rid = ref 0 in
          let call_b req =
            incr rid;
            raw b !rid req
          in
          List.iter
            (fun d -> expect ("mkdir " ^ d) Wire.Ok_unit (call_b (Wire.Mkdir d)))
            dirs;
          (* A holds a grant, and cached blocks, on one file per shard *)
          List.iter
            (fun f ->
              ok "a open wo" (CC.open_ a f Capfs.Client.WO);
              ok "a write" (CC.write a f ~offset:0 ~data:(block 'a'));
              ok "a close" (CC.close_ a f);
              ok "a open ro" (CC.open_ a f Capfs.Client.RO);
              Alcotest.(check string)
                ("a reads " ^ f) (block 'a')
                (ok "a read" (CC.read a f ~offset:0 ~count:bb)))
            files;
          let msgs = CC.msgs_sent a in
          List.iter
            (fun f -> ignore (ok "a reread" (CC.read a f ~offset:0 ~count:bb)))
            files;
          Alcotest.(check int) "rereads are local" msgs (CC.msgs_sent a);
          (* B rewrites both files through the grant-free vocabulary *)
          List.iter
            (fun f ->
              expect "b open" Wire.Ok_unit
                (call_b
                   (Wire.Open { client = 2; path = f; mode = Capfs.Client.WO }));
              expect "b write" Wire.Ok_unit
                (call_b
                   (Wire.Write
                      { client = 2; path = f; offset = 0; data = block 'b' }));
              expect "b close" Wire.Ok_unit
                (call_b (Wire.Close { client = 2; path = f })))
            files;
          let deadline = Unix.gettimeofday () +. 5. in
          while CC.invalidations a < 2 && Unix.gettimeofday () < deadline do
            ignore (ok "a stat" (CC.stat a (List.hd dirs)));
            Unix.sleepf 0.001
          done;
          Alcotest.(check int)
            "one invalidation per file" 2 (CC.invalidations a);
          List.iter
            (fun f ->
              Alcotest.(check string)
                ("a sees b's bytes in " ^ f) (block 'b')
                (ok "a read" (CC.read a f ~offset:0 ~count:bb)))
            files;
          (* the fan-out requests and the cross-shard refusal; an
             in-process call from this thread, foreign to every shard
             domain, travels through the inboxes too *)
          expect "sync" Wire.Ok_unit (call_b Wire.Sync);
          expect "in-process sync" Wire.Ok_unit (Server.call srv Wire.Sync);
          List.iter
            (fun d ->
              match Server.call srv (Wire.Stat d) with
              | Wire.Ok_stat { Wire.is_dir = true; _ } -> ()
              | r -> Alcotest.failf "in-process stat %s: %a" d Wire.pp_reply r)
            dirs;
          ok "a sync" (CC.sync a);
          let names = List.map (fun d -> Filename.basename d) dirs in
          expect "root readdir spans shards"
            (Wire.Ok_names (List.sort compare names))
            (call_b (Wire.Readdir "/"));
          expect "cross-shard rename" (Wire.Err Errno.EXDEV)
            (call_b
               (Wire.Rename
                  { src = List.hd files; dst = List.nth dirs 1 ^ "/g" }));
          CC.disconnect a;
          Unix.close b))

(* {1 The load generator's virtual twin}

   [Loadgen]'s workloads on [virtual_transport] with a step clock:
   each reading is 1 ms after the last, so a run of [seconds] is a
   fixed number of clock readings and its traffic an exact count. *)

module Loadgen = Capfs_pfs.Loadgen

let step_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

let zipf = Loadgen.Zipf 0.99

(* Client [id] of [workload] on a fresh virtual server; a shared
   workload's files are set up first. The transport's client id is the
   one a cached session speaks as. *)
let virtual_run ?(shards = 1) ~id workload ~cache =
  with_temp_base shards (fun path ->
      with_virtual_server ~shards path (fun srv ->
          if workload <> Loadgen.Seq then
            Loadgen.setup_shared
              (CC.virtual_transport srv ~client:999999)
              ~files:8 ~bytes:bb;
          let now = step_clock () in
          Loadgen.run
            (CC.virtual_transport ~now srv ~client:(id + 1))
            ~id workload ~cache ~depth:4 ~files:8 ~bytes:bb ~seconds:1.0))

let test_loadgen_seq_counts () =
  let r = virtual_run ~shards:2 ~id:0 Loadgen.Seq ~cache:false in
  Alcotest.(check bool) "ops moved" true (r.Loadgen.ops > 0);
  Alcotest.(check int) "no refusals" 0 (r.Loadgen.eagain + r.Loadgen.errors);
  Alcotest.(check int) "one message per op" r.Loadgen.ops r.Loadgen.msgs;
  Alcotest.(check int) "every op timed" r.Loadgen.ops
    (Capfs_stats.Histogram.total r.Loadgen.latency);
  let again = virtual_run ~shards:2 ~id:0 Loadgen.Seq ~cache:false in
  Alcotest.(check (list int))
    "a second run counts the same"
    [ r.Loadgen.ops; r.Loadgen.msgs ]
    [ again.Loadgen.ops; again.Loadgen.msgs ]

let test_loadgen_zipf_counts () =
  let r = virtual_run ~id:0 zipf ~cache:true in
  Alcotest.(check int) "no refusals" 0 (r.Loadgen.eagain + r.Loadgen.errors);
  Alcotest.(check int) "one miss per file" 8 r.Loadgen.misses;
  Alcotest.(check int) "8 grants and 8 fetches" 16 r.Loadgen.msgs;
  Alcotest.(check int) "every op a hit or a miss" r.Loadgen.ops
    (r.Loadgen.hits + r.Loadgen.misses);
  let plain = virtual_run ~id:0 zipf ~cache:false in
  Alcotest.(check bool) "plain ops moved" true (plain.Loadgen.ops > 0);
  Alcotest.(check int) "plain: one message per op, 8 opens, 8 closes"
    (plain.Loadgen.ops + 16) plain.Loadgen.msgs

let test_loadgen_probe_virtual () =
  with_temp_base 1 (fun path ->
      with_virtual_server ~shards:1 path (fun srv ->
          Loadgen.setup_shared
            (CC.virtual_transport srv ~client:999999)
            ~files:8 ~bytes:bb;
          Alcotest.(check bool)
            "read-your-writes holds" true
            (Loadgen.consistency_probe
               (CC.virtual_transport srv ~client:100001)
               (CC.virtual_transport srv ~client:100002)
               ~bytes:bb)))

(* The same cached workload over a real socket, on the real clock. *)
let test_loadgen_socket_parity () =
  with_temp_base 1 (fun path ->
      with_socket_server ~shards:1 path (fun _ connect ->
          Loadgen.setup_shared (CC.socket_transport (connect ())) ~files:8
            ~bytes:bb;
          let r =
            Loadgen.run
              (CC.socket_transport (connect ()))
              ~id:0 zipf ~cache:true ~depth:4 ~files:8 ~bytes:bb ~seconds:0.2
          in
          Alcotest.(check int) "one miss per file" 8 r.Loadgen.misses;
          Alcotest.(check int) "8 grants and 8 fetches" 16 r.Loadgen.msgs))

let suite =
  [
    Alcotest.test_case "local hits move no frames" `Quick test_hits_zero_wire;
    Alcotest.test_case "cold multi-block read batches" `Quick
      test_batched_fetch;
    Alcotest.test_case "read-your-writes through invalidation" `Quick
      test_read_your_writes_virtual;
    Alcotest.test_case "invalidation races in-flight read" `Quick
      test_invalidation_races_inflight_read;
    Alcotest.test_case "lease expiry flushes and renews" `Quick
      test_lease_expiry_flushes;
    Alcotest.test_case "caching resumes after writer departs" `Quick
      test_caching_resumes;
    Alcotest.test_case "truncate and rename invalidate" `Quick
      test_truncate_and_rename_invalidate;
    Alcotest.test_case "concurrent write sharing" `Quick
      test_concurrent_write_sharing;
    Alcotest.test_case "delete releases the grant" `Quick
      test_delete_releases_grant;
    Alcotest.test_case "frame splitter" `Quick test_splitter;
    Alcotest.test_case "virtual vs real socket parity" `Quick
      test_real_socket_parity;
    Alcotest.test_case "peer hang-up mid-reply" `Quick
      test_peer_hangup_mid_reply;
    Alcotest.test_case "closed connections release descriptors" `Quick
      test_closed_connections_release_fds;
    Alcotest.test_case "two shards over a socket" `Quick
      test_two_shards_over_socket;
    Alcotest.test_case "burst of 32 from a plain peer" `Quick
      test_burst_plain_peer;
    Alcotest.test_case "dribbled and 64 KiB frames" `Quick
      test_dribbled_frames;
    Alcotest.test_case "bad header closes one connection" `Quick
      test_bad_header_closes_one;
    Alcotest.test_case "loadgen seq: one message per op" `Quick
      test_loadgen_seq_counts;
    Alcotest.test_case "loadgen zipf: exact misses and messages" `Quick
      test_loadgen_zipf_counts;
    Alcotest.test_case "loadgen probe on the virtual server" `Quick
      test_loadgen_probe_virtual;
    Alcotest.test_case "loadgen zipf: socket parity" `Quick
      test_loadgen_socket_parity;
  ]
