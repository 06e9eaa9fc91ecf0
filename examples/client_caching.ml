(* Client caching with Sprite-style consistency — the §3 future work:
   "By using client caching we hope to reduce the amount of network
   traffic and file latency."

   Four diskless workstations on a shared 10 Mbit/s Ethernet re-read a
   hot set of files from a PFS server. Each workstation runs the client
   cache the live server speaks to — [Cached_client] — over the
   simulated link ([Cached_client.over_link]) in front of an in-process
   virtual-clock [Server]. With the cache a workstation opens the files
   once, fetches each block once and serves every later read locally;
   without it, every read crosses the wire as a plain Open/Read/Close.
   The link clock measures network time only: server work runs on the
   shards' own clocks. The demo ends with a write-sharing episode to
   show a reader never sees a stale value.

   Exits non-zero if the reader ever sees a stale value, or if the
   cache does not at least halve the bytes on the wire.

   Run: dune exec examples/client_caching.exe *)

module Sched = Capfs_sched.Sched
module Netlink = Capfs_ccache.Netlink
module Frame = Netlink.Frame
module Pfs = Capfs_pfs.Pfs
module Server = Capfs_pfs.Server
module Wire = Capfs_pfs.Wire
module CC = Capfs_pfs.Cached_client

let workstations = 4
let files = 8
let file_bytes = 64 * 1024
let rounds = 5
let hot f = Printf.sprintf "/hot%d" f

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Capfs_core.Errno.to_string e)

(* A 1-shard virtual-clock server on a temporary image, removed at
   exit. *)
let with_server f =
  let image = Filename.temp_file "client_caching" ".img" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ image; image ^ ".shard0" ])
    (fun () ->
      let cfg =
        Pfs.Config.make ~image ~size_mb:8 ~clock:`Virtual ~shards:1 ()
      in
      let srv = ok "server" (Server.create cfg) in
      Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv))

(* The publisher writes the hot set off the link: it is not part of
   the measurement. *)
let publish srv =
  let pub = CC.create ~client:0 (CC.virtual_transport srv ~client:0) in
  for f = 0 to files - 1 do
    ok "publish open" (CC.open_ pub (hot f) Capfs.Client.WO);
    ok "publish write"
      (CC.write pub (hot f) ~offset:0 ~data:(String.make file_bytes 'h'));
    ok "publish close" (CC.close_ pub (hot f))
  done;
  CC.disconnect pub

(* One measured run: every workstation is a fibre of one link's
   scheduler, running [session] over its own transport on the shared
   medium. Returns the payload bytes carried, the elapsed link time and
   each session's result. *)
let measure srv session =
  let s = Sched.create ~clock:`Virtual () in
  let net = Netlink.ethernet_10 s in
  let results = ref [] in
  for w = 1 to workstations do
    ignore
      (Sched.spawn s (fun () ->
           let tr = CC.over_link net (CC.virtual_transport srv ~client:w) in
           let r = session ~client:w tr in
           results := r :: !results))
  done;
  Sched.run s;
  (Netlink.bytes_carried net, Netlink.now net, !results)

(* The cache-off baseline: a plain Open/Read/Close per read, one
   request in flight, as loadgen's cache-off path speaks. *)
let uncached ~client (tr : CC.transport) =
  let call req =
    let opcode, payload = Wire.encode_request req in
    ok "send" (tr.t_send [ { Frame.req_id = 1; opcode; payload } ]);
    match ok "recv" (tr.t_recv ~block:true) with
    | None -> failwith "recv: connection closed"
    | Some f -> (
      match ok "decode" (Wire.decode_reply ~opcode:f.opcode f.payload) with
      | Wire.Err e -> failwith ("reply: " ^ Capfs_core.Errno.to_string e)
      | _ -> ())
  in
  for _ = 1 to rounds do
    for f = 0 to files - 1 do
      let path = hot f in
      call (Wire.Open { client; path; mode = Capfs.Client.RO });
      call (Wire.Read { client; path; offset = 0; count = file_bytes });
      call (Wire.Close { client; path })
    done
  done;
  tr.t_close ()

(* The cached run: open the hot set once, re-read it [rounds] times,
   close it. The files stay open because a close drops their blocks.
   Returns the block hits and misses. *)
let cached ~client tr =
  let c = CC.create ~client tr in
  for f = 0 to files - 1 do
    ok "open" (CC.open_ c (hot f) Capfs.Client.RO)
  done;
  for _ = 1 to rounds do
    for f = 0 to files - 1 do
      ignore (ok "read" (CC.read c (hot f) ~offset:0 ~count:file_bytes))
    done
  done;
  for f = 0 to files - 1 do
    ok "close" (CC.close_ c (hot f))
  done;
  CC.disconnect c;
  (CC.local_hits c, CC.remote_misses c)

(* The consistency coda: a reader shares a file with a writer. The
   reader opens first, so its open invalidates the writer, which goes
   write-through: each read sees the write before it. *)
let write_sharing srv =
  let client id =
    CC.create ~client:id (CC.virtual_transport srv ~client:id)
  in
  let writer = client 11 and reader = client 12 in
  ok "writer open" (CC.open_ writer "/status" Capfs.Client.WO);
  ok "reader open" (CC.open_ reader "/status" Capfs.Client.RO);
  let seen =
    List.map
      (fun v ->
        ok "write" (CC.write writer "/status" ~offset:0 ~data:v);
        (v, ok "read" (CC.read reader "/status" ~offset:0 ~count:8)))
      [ "booting "; "running!" ]
  in
  CC.disconnect writer;
  CC.disconnect reader;
  seen

let () =
  let off, on, seen =
    with_server (fun srv ->
        publish srv;
        let off = measure srv uncached in
        let on = measure srv cached in
        (off, on, write_sharing srv))
  in
  let uncached_bytes, uncached_time, _ = off
  and cached_bytes, cached_time, counts = on in
  let hits, misses =
    List.fold_left (fun (h, m) (h', m') -> (h + h', m + m')) (0, 0) counts
  in
  let mb b = float_of_int b /. 1048576. in
  Format.printf
    "%d workstations re-read %d x %d KB files %d times over 10 Mbit/s \
     Ethernet:@."
    workstations files (file_bytes / 1024) rounds;
  Format.printf "  no client cache:   %6.1f MB on the wire, %6.2f s@."
    (mb uncached_bytes) uncached_time;
  Format.printf
    "  with client cache: %6.1f MB on the wire, %6.2f s (%d local hits, %d \
     misses)@."
    (mb cached_bytes) cached_time hits misses;
  Format.printf "  traffic saved: %.0f%%, latency saved: %.0f%%@."
    (100. *. (1. -. (float_of_int cached_bytes /. float_of_int uncached_bytes)))
    (100. *. (1. -. (cached_time /. uncached_time)));
  let stale = List.filter (fun (wrote, read) -> wrote <> read) seen in
  Format.printf "@.write sharing: reader sees %s — %s.@."
    (String.concat " then "
       (List.map (fun (_, r) -> Printf.sprintf "%S" r) seen))
    (if stale = [] then "never stale" else "STALE");
  if stale <> [] || 2 * cached_bytes >= uncached_bytes then exit 1
