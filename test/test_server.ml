(* The sharded multi-client server: wire codecs (by example and by
   qcheck property), configuration grammar, routing, admission control
   and the merged statistics report. Everything here runs under the
   virtual clock through [Server.call]/[Server.drive] — the same
   execution path the socket front door uses under the real clock,
   exercised deterministically. *)

module Pfs = Capfs_pfs.Pfs
module Server = Capfs_pfs.Server
module Wire = Capfs_pfs.Wire
module Errno = Capfs_core.Errno
module Data = Capfs_disk.Data
module Frame = Capfs_ccache.Netlink.Frame

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
  Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Virtual ~shards ~admission ()

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
      Wire.Rename { src = "/a/b"; dst = "/a/c" };
      Wire.Readdir "/a";
      Wire.Rmdir "/a/d";
      Wire.Symlink { target = "../t"; path = "/a/l" };
      Wire.Readlink "/a/l";
      Wire.Truncate { path = "/a/f"; size = 100_000 };
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
       { Wire.version = 1; cacheable = false; lease_s = 0.25; size = 0 });
  roundtrip_reply ~opcode:(op (Wire.Readdir "/d"))
    (Wire.Ok_names [ "a"; ""; String.make 300 'n' ]);
  roundtrip_reply ~opcode:(op (Wire.Readdir "/d")) (Wire.Ok_names []);
  roundtrip_reply ~opcode:(op (Wire.Readlink "/l")) (Wire.Ok_link "/target");
  roundtrip_reply ~opcode:(op (Wire.Readlink "/l")) (Wire.Ok_link "");
  List.iter
    (fun req -> roundtrip_reply ~opcode:(op req) Wire.Ok_unit)
    [
      Wire.Rename { src = "/a"; dst = "/b" };
      Wire.Rmdir "/d";
      Wire.Symlink { target = "/t"; path = "/l" };
      Wire.Truncate { path = "/f"; size = 0 };
    ];
  roundtrip_reply ~opcode:(op (Wire.Rename { src = "/a"; dst = "/b" }))
    (Wire.Err Errno.EXDEV)

(* Both kinds of push: a revocation and a restoration. *)
let test_wire_push_roundtrip () =
  List.iter
    (fun cacheable ->
      let p = Wire.Invalidate { path = "/shared/doc"; version = 42; cacheable } in
      let opcode, payload = Wire.encode_push p in
      match Wire.decode_push ~opcode payload with
      | Ok p' ->
        if p <> p' then
          Alcotest.failf "push (cacheable %b) did not survive the wire" cacheable
      | Error e -> Alcotest.failf "decode_push: %s" (Errno.to_string e))
    [ false; true ]

let test_wire_decode_errors () =
  (match Wire.decode_request ~opcode:0xFF "" with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown opcode must be EINVAL");
  let truncated req =
    let opcode, payload = Wire.encode_request req in
    match
      Wire.decode_request ~opcode
        (String.sub payload 0 (String.length payload - 1))
    with
    | Error Errno.EINVAL -> ()
    | Ok _ | Error _ -> Alcotest.fail "truncated payload must be EINVAL"
  in
  List.iter truncated
    [
      Wire.Open { client = 1; path = "/x"; mode = Capfs.Client.RO };
      Wire.Rename { src = "/x"; dst = "/y" };
      Wire.Readdir "/x";
      Wire.Rmdir "/x";
      Wire.Symlink { target = "/t"; path = "/x" };
      Wire.Readlink "/x";
      Wire.Truncate { path = "/x"; size = 7 };
    ];
  (* a name count the payload cannot hold *)
  (match
     Wire.decode_reply
       ~opcode:(fst (Wire.encode_request (Wire.Readdir "/")))
       "\000\255\255\255\127"
   with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized name count must be EINVAL");
  match Wire.decode_reply ~opcode:(fst (Wire.encode_request Wire.Sync)) "" with
  | Error Errno.EINVAL -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty reply must be EINVAL"

(* Wire codecs, property-tested: every request and reply shape
   round-trips with integers over the whole u32 range and strings up to
   the u16 length limit, and hostile bytes never raise. *)

module G = QCheck.Gen

let u32 =
  G.frequency
    [
      (1, G.oneofl [ 0; 1; 0x7fffffff; 0x80000000; 0xfffffffe; 0xffffffff ]);
      (4, G.map (fun x -> x land 0xffffffff) G.int);
    ]

(* mostly short, sometimes up to the u16 length prefix's limit *)
let wire_string =
  G.string_size
    (G.frequency [ (6, G.int_bound 24); (1, G.int_bound 0xffff) ])

let mode = G.oneofl Capfs.Client.[ RO; WO; RW ]

let gen_request =
  let open G in
  oneof
    [
      map3 (fun client path mode -> Wire.Open { client; path; mode })
        u32 wire_string mode;
      map2 (fun client path -> Wire.Close { client; path }) u32 wire_string;
      map3
        (fun (client, path) offset count ->
          Wire.Read { client; path; offset; count })
        (pair u32 wire_string) u32 u32;
      map3
        (fun (client, path) offset data ->
          Wire.Write { client; path; offset; data })
        (pair u32 wire_string) u32 wire_string;
      map (fun p -> Wire.Mkdir p) wire_string;
      map (fun p -> Wire.Delete p) wire_string;
      map (fun p -> Wire.Stat p) wire_string;
      oneofl [ Wire.Sync; Wire.Stats; Wire.Shutdown ];
      map3 (fun client path mode -> Wire.Open_grant { client; path; mode })
        u32 wire_string mode;
      map3
        (fun (client, path) (size, close) blocks ->
          Wire.Writeback { client; path; size; close; blocks })
        (pair u32 wire_string) (pair u32 bool)
        (list_size (int_bound 4) (pair u32 wire_string));
      map2 (fun src dst -> Wire.Rename { src; dst }) wire_string wire_string;
      map (fun p -> Wire.Readdir p) wire_string;
      map (fun p -> Wire.Rmdir p) wire_string;
      map2
        (fun target path -> Wire.Symlink { target; path })
        wire_string wire_string;
      map (fun p -> Wire.Readlink p) wire_string;
      map2 (fun path size -> Wire.Truncate { path; size }) wire_string u32;
    ]

let op req = Wire.opcode req

let grant_op =
  op (Wire.Open_grant { client = 0; path = ""; mode = Capfs.Client.RO })

(* every success shape under the opcode whose reply it is *)
let gen_reply =
  let open G in
  let errno = oneofl (Array.to_list Errno.all) in
  let any_op = map op gen_request in
  let unit_op =
    oneofl
      (List.map op
         [
           Wire.Open { client = 0; path = ""; mode = Capfs.Client.RO };
           Wire.Close { client = 0; path = "" };
           Wire.Write { client = 0; path = ""; offset = 0; data = "" };
           Wire.Mkdir "";
           Wire.Delete "";
           Wire.Sync;
           Wire.Rename { src = ""; dst = "" };
           Wire.Rmdir "";
           Wire.Symlink { target = ""; path = "" };
           Wire.Truncate { path = ""; size = 0 };
           Wire.Writeback
             { client = 0; path = ""; size = 0; close = false; blocks = [] };
         ])
  in
  oneof
    [
      map (fun o -> (o, Wire.Ok_unit)) unit_op;
      map
        (fun d ->
          (op (Wire.Read { client = 0; path = ""; offset = 0; count = 0 }),
           Wire.Ok_data (Data.of_string d)))
        wire_string;
      map2
        (fun size is_dir -> (op (Wire.Stat ""), Wire.Ok_stat { size; is_dir }))
        u32 bool;
      map (fun s -> (op Wire.Stats, Wire.Ok_stats s)) wire_string;
      map3
        (fun (version, cacheable) ms size ->
          ( grant_op,
            Wire.Ok_grant
              {
                Wire.version;
                cacheable;
                lease_s = float_of_int ms /. 1000.;
                size;
              } ))
        (pair u32 bool) u32 u32;
      map
        (fun names -> (op (Wire.Readdir ""), Wire.Ok_names names))
        (list_size (int_bound 6) wire_string);
      map (fun s -> (op (Wire.Readlink ""), Wire.Ok_link s)) wire_string;
      map2 (fun o e -> (o, Wire.Err e)) any_op errno;
    ]

(* [payload] at a random offset inside random bytes: the window a
   socket reader decodes in place *)
let gen_window payload =
  G.map2
    (fun pre post ->
      (String.length pre, Bytes.of_string (pre ^ payload ^ post)))
    (G.string_size (G.int_bound 32))
    (G.string_size (G.int_bound 32))

let decode_window opcode payload (off, buf) =
  Wire.decode_request_window ~opcode buf ~off ~len:(String.length payload)

let prop_requests_roundtrip =
  QCheck.Test.make ~name:"wire requests round-trip" ~count:300
    (QCheck.make
       G.(
         gen_request >>= fun req ->
         let opcode, payload = Wire.encode_request req in
         map (fun w -> (req, opcode, payload, w)) (gen_window payload)))
    (fun (req, opcode, payload, w) ->
      Wire.decode_request ~opcode payload = Ok req
      && decode_window opcode payload w = Ok req)

let prop_replies_roundtrip =
  QCheck.Test.make ~name:"wire replies round-trip under their opcode"
    ~count:300 (QCheck.make gen_reply) (fun (opcode, reply) ->
      Wire.decode_reply ~opcode (Wire.encode_reply reply) = Ok reply)

(* Hostile input: random bytes, and valid encodings with a byte flipped
   or the tail cut off. *)
let gen_hostile =
  let open G in
  let mangle (opcode, payload) =
    map2
      (fun cut flip ->
        let n = String.length payload in
        let b = Bytes.of_string (String.sub payload 0 (min n cut)) in
        (match flip with
        | Some (i, c) when Bytes.length b > 0 ->
          Bytes.set b (i mod Bytes.length b) c
        | _ -> ());
        (opcode, Bytes.to_string b))
      (int_bound (String.length payload + 1))
      (opt (pair nat char))
  in
  oneof
    [
      pair (int_bound 0xffff) (string_size (int_bound 64));
      pair (int_bound 24) (string_size (int_bound 64));
      (gen_request >>= fun r -> mangle (Wire.encode_request r));
      (gen_reply >>= fun (o, r) -> mangle (o, Wire.encode_reply r));
    ]

let typed = function Ok _ -> true | Error (_ : Errno.t) -> true

(* A hostile window decodes exactly as the same bytes alone: had the
   decoder read outside [off, off+len), the random bytes around the
   window would have changed its answer. *)
let prop_decoders_total =
  QCheck.Test.make ~name:"hostile bytes decode to Ok or a typed error"
    ~count:500
    (QCheck.make
       G.(
         gen_hostile >>= fun (opcode, payload) ->
         map (fun w -> (opcode, payload, w)) (gen_window payload)))
    (fun (opcode, payload, w) ->
      let alone = Wire.decode_request ~opcode payload in
      typed alone
      && decode_window opcode payload w = alone
      && typed (Wire.decode_reply ~opcode payload)
      && typed (Wire.decode_push ~opcode payload))

(* The splitter over arbitrary chunks of arbitrary bytes, some of them
   valid frames: every pop is a frame, a wait or a typed error. *)
let prop_splitter_total =
  let frame (req_id, opcode, payload) =
    let plen = String.length payload in
    let b = Bytes.create (Frame.header_bytes + plen) in
    Frame.blit_header b 0 ~req_id ~opcode ~payload_len:plen;
    Bytes.blit_string payload 0 b Frame.header_bytes plen;
    Bytes.to_string b
  in
  let piece =
    G.oneof
      [
        G.string_size (G.int_bound 40);
        G.map frame (G.triple u32 (G.int_bound 0xffff) wire_string);
      ]
  in
  QCheck.Test.make ~name:"frame splitter never raises" ~count:300
    (QCheck.make G.(pair (list_size (int_bound 6) piece) (int_range 1 64)))
    (fun (pieces, chunk) ->
      let stream = Bytes.of_string (String.concat "" pieces) in
      let sp = Frame.Splitter.create () in
      let rec pop_all () =
        match Frame.Splitter.pop sp with
        | Ok (Some _) -> pop_all ()
        | Ok None | Error _ -> ()
      in
      let n = Bytes.length stream in
      let rec go off =
        if off < n then begin
          let len = min chunk (n - off) in
          Frame.Splitter.feed sp stream off len;
          pop_all ();
          go (off + len)
        end
      in
      go 0;
      true)

(* The grant's lease rides as whole milliseconds: every value keeps
   its millisecond. *)
let test_wire_lease_milliseconds () =
  for ms = 0 to 100_000 do
    let lease_s = float_of_int ms /. 1000. in
    let g =
      Wire.Ok_grant { Wire.version = 0; cacheable = true; lease_s; size = 0 }
    in
    match Wire.decode_reply ~opcode:grant_op (Wire.encode_reply g) with
    | Ok (Wire.Ok_grant { lease_s = got; _ }) when got = lease_s -> ()
    | Ok r -> Alcotest.failf "%d ms came back as %a" ms Wire.pp_reply r
    | Error e -> Alcotest.failf "%d ms: %s" ms (Errno.to_string e)
  done

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
  expect_einval "removed key" (Pfs.Config.of_args ~base [ "workers=4" ]);
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

let merged_count t key =
  match Capfs_stats.Snapshot.find (Server.merged t) key with
  | Some e -> e.Capfs_stats.Snapshot.e_count
  | None -> Alcotest.failf "no merged entry for %s" key

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
          let count = merged_count t in
          (* 4 mkdirs + one sync fanned out to 2 shards *)
          Alcotest.(check int) "submitted" 6 (count "server.submitted");
          Alcotest.(check int) "completed" 6 (count "server.completed");
          Alcotest.(check int) "rejected" 0 (count "server.rejected");
          (* the wire-level Stats request carries the same report *)
          match Server.call t Wire.Stats with
          | Wire.Ok_stats json ->
            let module Json = Capfs_stats.Json in
            let doc =
              match Json.parse json with
              | Ok doc -> doc
              | Error e -> Alcotest.failf "stats json: %s" e
            in
            let get k v =
              match Json.member k v with
              | Some x -> x
              | None -> Alcotest.failf "stats json: no %S" k
            in
            let list = function
              | Json.Arr l -> l
              | _ -> Alcotest.fail "stats json: expected an array"
            in
            (* key -> count, over one snapshot array *)
            let counts snap =
              List.map
                (fun e ->
                  match (get "key" e, get "count" e) with
                  | Json.Str k, Json.Num n -> (k, n)
                  | _ -> Alcotest.fail "stats json: bad entry")
                (list snap)
            in
            Alcotest.(check bool) "json has shards" true
              (get "shards" doc = Json.Num 2.);
            let shards =
              List.map
                (fun s -> counts (get "stats" s))
                (list (get "per_shard" doc))
            in
            Alcotest.(check int) "one per_shard entry per shard" 2
              (List.length shards);
            List.iter
              (fun (k, n) ->
                let sum =
                  List.fold_left
                    (fun acc s ->
                      acc +. Option.value ~default:0. (List.assoc_opt k s))
                    0. shards
                in
                Alcotest.(check (float 0.)) ("totals " ^ k) sum n)
              (counts (get "totals" doc));
            Alcotest.(check (float 0.)) "totals carry the completed requests"
              6. (List.assoc "server.completed" (counts (get "totals" doc)));
            (match get "wire" doc with
            | Json.Obj wire ->
              Alcotest.(check (list string)) "wire counters"
                (List.map Capfs_stats.Names.wire
                   [ "frames_sent"; "syscalls"; "reads"; "frames_received";
                     "blit_count"; "copied_bytes" ])
                (List.map fst wire)
            | _ -> Alcotest.fail "stats json: wire is not an object")
          | r -> Alcotest.failf "stats: %a" Wire.pp_reply r))

(* The namespace over the wire: every request is one abstract-client
   call on its shard, run here on one shard and on two. *)

let on_1_and_2_shards f =
  List.iter
    (fun shards ->
      with_temp_base shards (fun path -> with_server ~shards path f))
    [ 1; 2 ]

let expect_ok t what req = check_reply what Wire.Ok_unit (Server.call t req)

let create_file t ?(data = "") path =
  expect_ok t ("open " ^ path)
    (Wire.Open { client = 1; path; mode = Capfs.Client.WO });
  if data <> "" then
    expect_ok t ("write " ^ path)
      (Wire.Write { client = 1; path; offset = 0; data });
  expect_ok t ("close " ^ path) (Wire.Close { client = 1; path })

let read_all t path =
  match
    Server.call t
      (Wire.Read { client = 1; path; offset = 0; count = 1 lsl 20 })
  with
  | Wire.Ok_data d -> Data.to_string d
  | r -> Alcotest.failf "read %s: %a" path Wire.pp_reply r

let test_wire_create_write_read () =
  on_1_and_2_shards (fun t ->
      let path = "/exports/hello" in
      expect_ok t "mkdir" (Wire.Mkdir "/exports");
      create_file t path ~data:"over the wire";
      check_reply "stat" (Wire.Ok_stat { Wire.size = 13; is_dir = false })
        (Server.call t (Wire.Stat path));
      (match Server.call t (Wire.Stat "/exports") with
      | Wire.Ok_stat { Wire.is_dir = true; _ } -> ()
      | r -> Alcotest.failf "stat dir: %a" Wire.pp_reply r);
      (match
         Server.call t (Wire.Read { client = 1; path; offset = 5; count = 100 })
       with
      | Wire.Ok_data d ->
        Alcotest.(check string) "short read at EOF" "the wire" (Data.to_string d)
      | r -> Alcotest.failf "read: %a" Wire.pp_reply r);
      check_reply "absent" (Wire.Err Errno.ENOENT)
        (Server.call t (Wire.Stat "/exports/absent")))

let test_wire_namespace_errors () =
  on_1_and_2_shards (fun t ->
      expect_ok t "mkdir" (Wire.Mkdir "/d");
      check_reply "mkdir again" (Wire.Err Errno.EEXIST)
        (Server.call t (Wire.Mkdir "/d"));
      create_file t "/d/f";
      check_reply "rmdir non-empty" (Wire.Err Errno.ENOTEMPTY)
        (Server.call t (Wire.Rmdir "/d"));
      check_reply "delete dir" (Wire.Err Errno.EISDIR)
        (Server.call t (Wire.Delete "/d"));
      check_reply "rmdir file" (Wire.Err Errno.ENOTDIR)
        (Server.call t (Wire.Rmdir "/d/f"));
      expect_ok t "delete" (Wire.Delete "/d/f");
      expect_ok t "rmdir" (Wire.Rmdir "/d");
      check_reply "gone" (Wire.Err Errno.ENOENT) (Server.call t (Wire.Stat "/d")))

let test_wire_rename_readdir_symlink () =
  on_1_and_2_shards (fun t ->
      expect_ok t "mkdir" (Wire.Mkdir "/d");
      create_file t "/d/a" ~data:"moved";
      expect_ok t "rename" (Wire.Rename { src = "/d/a"; dst = "/d/b" });
      check_reply "src gone" (Wire.Err Errno.ENOENT)
        (Server.call t (Wire.Stat "/d/a"));
      expect_ok t "symlink" (Wire.Symlink { target = "/d/b"; path = "/d/l" });
      check_reply "readlink" (Wire.Ok_link "/d/b")
        (Server.call t (Wire.Readlink "/d/l"));
      check_reply "readlink of a file" (Wire.Err Errno.EINVAL)
        (Server.call t (Wire.Readlink "/d/b"));
      check_reply "readdir" (Wire.Ok_names [ "b"; "l" ])
        (Server.call t (Wire.Readdir "/d"));
      (* the link resolves within its shard *)
      Alcotest.(check string) "read through link" "moved" (read_all t "/d/l"))

let test_wire_truncate_and_sync () =
  on_1_and_2_shards (fun t ->
      expect_ok t "mkdir" (Wire.Mkdir "/t");
      create_file t "/t/f" ~data:(String.make 9000 'z');
      expect_ok t "truncate" (Wire.Truncate { path = "/t/f"; size = 100 });
      check_reply "stat" (Wire.Ok_stat { Wire.size = 100; is_dir = false })
        (Server.call t (Wire.Stat "/t/f"));
      expect_ok t "sync" Wire.Sync;
      Alcotest.(check string) "read" (String.make 100 'z') (read_all t "/t/f"))

(* Data operations used to overwrite a directory's entry blocks: after
   a restart the children were gone. *)
let test_wire_directory_data_ops_refused () =
  with_temp_base 1 (fun path ->
      let files = List.init 10 (Printf.sprintf "/a/f%d") in
      with_server ~shards:1 path (fun t ->
          expect_ok t "mkdir" (Wire.Mkdir "/a");
          List.iter (create_file t) files;
          List.iter
            (fun (what, req) ->
              check_reply what (Wire.Err Errno.EISDIR) (Server.call t req))
            [
              ( "writeback onto a directory",
                Wire.Writeback
                  { client = 1; path = "/a"; size = 0; close = false; blocks = [] }
              );
              ( "write into a directory",
                Wire.Write { client = 1; path = "/a"; offset = 0; data = "xx" } );
              ("truncate a directory", Wire.Truncate { path = "/a"; size = 0 });
            ];
          expect_ok t "sync" Wire.Sync);
      with_server ~shards:1 path (fun t ->
          List.iter
            (fun f ->
              check_reply (f ^ " after restart")
                (Wire.Ok_stat { Wire.size = 0; is_dir = false })
                (Server.call t (Wire.Stat f)))
            files))

(* The root has no parent: mutating it is a typed EINVAL, not a crashed
   request. *)
let test_wire_root_operations () =
  with_temp_base 1 (fun path ->
      with_server ~shards:1 path (fun t ->
          List.iter
            (fun (what, req) ->
              check_reply what (Wire.Err Errno.EINVAL) (Server.call t req))
            [
              ("mkdir /", Wire.Mkdir "/");
              ("delete /", Wire.Delete "/");
              ("rmdir /", Wire.Rmdir "/");
              ("rename / away", Wire.Rename { src = "/"; dst = "/x" });
              ("rename onto /", Wire.Rename { src = "/x"; dst = "/" });
            ];
          check_reply "root survives" (Wire.Ok_names [])
            (Server.call t (Wire.Readdir "/"))))

let test_wire_rename_across_shards () =
  with_temp_base 2 (fun path ->
      with_server path (fun t ->
          let dirs = List.init 16 (Printf.sprintf "/r%d") in
          let src_dir = List.hd dirs in
          let dst_dir =
            List.find (fun d -> Server.route t d <> Server.route t src_dir) dirs
          in
          List.iter (fun d -> expect_ok t ("mkdir " ^ d) (Wire.Mkdir d))
            [ src_dir; dst_dir ];
          create_file t (src_dir ^ "/f") ~data:"stays";
          let before = merged_count t "server.submitted" in
          check_reply "cross-shard rename" (Wire.Err Errno.EXDEV)
            (Server.call t
               (Wire.Rename { src = src_dir ^ "/f"; dst = dst_dir ^ "/f" }));
          Alcotest.(check int)
            "no shard saw it" before
            (merged_count t "server.submitted");
          Alcotest.(check string)
            "src intact" "stays"
            (read_all t (src_dir ^ "/f"));
          check_reply "dst untouched" (Wire.Ok_names [])
            (Server.call t (Wire.Readdir dst_dir))))

let test_wire_root_readdir_spans_shards () =
  with_temp_base 2 (fun path ->
      with_server path (fun t ->
          let names = List.init 8 (Printf.sprintf "c%d") in
          let used =
            List.sort_uniq compare
              (List.map (fun n -> Server.route t ("/" ^ n)) names)
          in
          Alcotest.(check (list int)) "both shards hold entries" [ 0; 1 ] used;
          List.iter
            (fun n -> expect_ok t ("mkdir " ^ n) (Wire.Mkdir ("/" ^ n)))
            names;
          check_reply "root listing" (Wire.Ok_names names)
            (Server.call t (Wire.Readdir "/"))))

let suite =
  [
    Alcotest.test_case "wire request roundtrip" `Quick
      test_wire_request_roundtrip;
    Alcotest.test_case "wire reply roundtrip" `Quick test_wire_reply_roundtrip;
    Alcotest.test_case "wire decode errors" `Quick test_wire_decode_errors;
    Alcotest.test_case "wire push roundtrip" `Quick test_wire_push_roundtrip;
    Alcotest.test_case "wire lease milliseconds" `Quick
      test_wire_lease_milliseconds;
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
    Alcotest.test_case "wire create/write/read" `Quick
      test_wire_create_write_read;
    Alcotest.test_case "wire namespace errors" `Quick test_wire_namespace_errors;
    Alcotest.test_case "wire rename/readdir/symlink" `Quick
      test_wire_rename_readdir_symlink;
    Alcotest.test_case "wire truncate and sync" `Quick
      test_wire_truncate_and_sync;
    Alcotest.test_case "wire directory data ops refused" `Quick
      test_wire_directory_data_ops_refused;
    Alcotest.test_case "wire root operations" `Quick test_wire_root_operations;
    Alcotest.test_case "wire rename across shards" `Quick
      test_wire_rename_across_shards;
    Alcotest.test_case "wire root readdir spans shards" `Quick
      test_wire_root_readdir_spans_shards;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_requests_roundtrip;
        prop_replies_roundtrip;
        prop_decoders_total;
        prop_splitter_total;
      ]
