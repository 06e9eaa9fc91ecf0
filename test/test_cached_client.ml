(* The leased client cache over the wire: local hits with zero wire
   traffic, push-driven invalidation (including one racing an in-flight
   read), lease expiry forcing a write-back + renewal, read-your-writes
   across two clients, incremental frame reassembly, and virtual-vs-real
   parity — the same client state machine over Server.drive and over an
   actual Unix socket served by Server.serve. *)

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
    Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Virtual ~shards ~workers:0
      ?lease_s ()
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
          ok "close" (CC.close_ a "/d/f");
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
   transport send (one Batch container on a socket). *)
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
      List.iter (fun i -> Sys.remove (Printf.sprintf "%s.shard%d" path i))
        [ 0 ] |> ignore;
      (* the real run: serve on a Unix socket from another domain *)
      let cfg =
        Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Real ~shards:1
          ~workers:0 ()
      in
      let srv =
        match Server.create cfg with
        | Ok s -> s
        | Error e -> Alcotest.failf "Server.create: %s" (Errno.to_string e)
      in
      let sock = path ^ ".sock" in
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lfd (Unix.ADDR_UNIX sock);
      Unix.listen lfd 8;
      let server_domain = Domain.spawn (fun () -> Server.serve srv lfd) in
      let connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd
      in
      let fd = connect () in
      let cc = CC.create ~client:1 (CC.socket_transport fd) in
      let real_counts = workload cc in
      CC.disconnect cc;
      Alcotest.(check (triple int int int))
        "virtual and real runs count identically" virtual_counts real_counts;
      (* one raw Read spanning the block boundary: the server's gathered
         reply must reach the wire whole and in order *)
      let rfd = connect () in
      let opcode, payload =
        Wire.encode_request
          (Wire.Read { client = 7; path = "/d/f"; offset = bb - 3; count = bb })
      in
      (match Frame.write rfd { Frame.req_id = 42; opcode; payload } with
      | Ok () -> ()
      | Error e -> Alcotest.failf "raw read send: %s" (Errno.to_string e));
      (match Frame.read rfd with
      | Ok (Some f) -> (
        Alcotest.(check int) "raw read req_id" 42 f.Frame.req_id;
        match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
        | Ok (Wire.Ok_data d) ->
          Alcotest.(check string) "raw multi-block read"
            (String.make 3 '1' ^ String.make (bb - 3) '2')
            (Capfs_disk.Data.to_string d)
        | Ok r -> Alcotest.failf "raw read: %a" Wire.pp_reply r
        | Error e -> Alcotest.failf "raw read decode: %s" (Errno.to_string e))
      | Ok None -> Alcotest.fail "raw read: connection closed"
      | Error e -> Alcotest.failf "raw read recv: %s" (Errno.to_string e));
      Unix.close rfd;
      (* stop the server over the wire; its clean exit is the ack *)
      let sfd = connect () in
      let opcode, body = Wire.encode_request Wire.Shutdown in
      (match Frame.write sfd { Frame.req_id = 0; opcode; payload = body } with
      | Ok () -> ()
      | Error e -> Alcotest.failf "shutdown send: %s" (Errno.to_string e));
      Unix.close sfd;
      Domain.join server_domain;
      Unix.close lfd)

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
    Alcotest.test_case "frame splitter" `Quick test_splitter;
    Alcotest.test_case "virtual vs real socket parity" `Quick
      test_real_socket_parity;
  ]
