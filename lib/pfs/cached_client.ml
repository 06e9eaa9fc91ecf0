(* The leased client cache: Sprite-style client caching on the PFS wire
   protocol. See cached_client.mli. *)

module Netlink = Capfs_ccache.Netlink
module Frame = Netlink.Frame
module Data = Capfs_disk.Data
module Errno = Capfs_core.Errno

let bb = Pfs.block_bytes

(* A Writeback frame carrying more than this many blocks would risk
   the peer's 1 MiB payload cap; flushes chunk at this granularity. *)
let writeback_chunk = 192

type transport = {
  t_send : Frame.t list -> (unit, Errno.t) result;
  t_recv : block:bool -> (Frame.t option, Errno.t) result;
  t_now : unit -> float;
  t_close : unit -> unit;
}

type block = { b_data : Bytes.t; mutable b_dirty : bool }

type handle = {
  h_path : string;
  mutable h_mode : Capfs.Client.open_mode;
  mutable h_version : int;
  mutable h_cacheable : bool;
  mutable h_size : int;
  mutable h_sized : bool; (* [h_size] is current: see [apply_push] *)
  mutable h_expires : float;
  mutable h_epoch : int;
  h_blocks : (int, block) Hashtbl.t; (* block index -> cached block *)
}

type t = {
  tr : transport;
  client : int;
  handles : (string, handle) Hashtbl.t;
  pending : (int, Frame.t) Hashtbl.t; (* out-of-order replies parked *)
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
  mutable invals : int;
  mutable msgs : int;
  mutable sends : int;
  mutable closed : bool;
}

let create ~client transport =
  {
    tr = transport;
    client;
    handles = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    next_id = 1;
    hits = 0;
    misses = 0;
    invals = 0;
    msgs = 0;
    sends = 0;
    closed = false;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (if id + 1 >= Wire.push_req_id then 1 else id + 1);
  id

let frame_of_request id req =
  let opcode, payload = Wire.encode_request req in
  { Frame.req_id = id; opcode; payload }

let send t frames =
  t.msgs <- t.msgs + List.length frames;
  t.sends <- t.sends + 1;
  t.tr.t_send frames

(* {2 The receive path}

   One loop serves three consumers: replies we are waiting for, replies
   to other in-flight requests (parked in [pending] — the transports
   may interleave), and server pushes under {!Wire.push_req_id}, which
   are acted on the moment they surface so a stale block is never
   served after its invalidation has been read off the wire. *)

let rec wait_reply t id =
  match Hashtbl.find_opt t.pending id with
  | Some f ->
    Hashtbl.remove t.pending id;
    Ok f
  | None -> (
    match t.tr.t_recv ~block:true with
    | Error e -> Error e
    | Ok None -> Error Errno.EIO
    | Ok (Some f) ->
      if f.Frame.req_id = Wire.push_req_id then begin
        handle_push t f;
        wait_reply t id
      end
      else if f.Frame.req_id = id then Ok f
      else begin
        Hashtbl.replace t.pending f.Frame.req_id f;
        wait_reply t id
      end)

and handle_push t f =
  match Wire.decode_push ~opcode:f.Frame.opcode f.Frame.payload with
  | Error _ -> ()
  | Ok (Wire.Invalidate { path; version; cacheable }) -> (
    match Hashtbl.find_opt t.handles path with
    | Some h when version >= h.h_version -> apply_push t h ~version ~cacheable
    | _ -> () (* not open here, or older than what the handle knows *))

(* The path's version and cacheability as the lease table has them now.
   Both are set before anything else, so a push handled while the
   flush below waits for its reply is judged against them. *)
and apply_push t h ~version ~cacheable =
  let stale = version > h.h_version || not cacheable in
  (* the size may have moved: with the data on a stale push, and under
     a write-through handle with no newer version at all — a revoked
     writer commits its delayed writes in a Writeback, which moves
     none. The next read learns it. *)
  if stale || not h.h_cacheable then h.h_sized <- false;
  h.h_version <- version;
  h.h_cacheable <- cacheable;
  if stale then begin
    (* a revocation or a newer version: every cached block is
       suspect. The epoch bump tells any in-flight fetch not to insert
       its reply: the caller still gets the data (the read was issued
       before the push), the cache does not keep it. Our delayed
       writes are committed before anything is dropped. *)
    t.invals <- t.invals + 1;
    h.h_epoch <- h.h_epoch + 1;
    ignore (flush_dirty t h ~close:false);
    Hashtbl.reset h.h_blocks
  end

and rpc t req =
  let id = fresh_id t in
  match send t [ frame_of_request id req ] with
  | Error e -> Error e
  | Ok () -> (
    match wait_reply t id with
    | Error e -> Error e
    | Ok f -> (
      match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
      | Error e -> Error e
      | Ok (Wire.Err e) -> Error e
      | Ok r -> Ok r))

and flush_dirty t h ~close =
  let dirty =
    Hashtbl.fold
      (fun idx b acc -> if b.b_dirty then (idx, b) :: acc else acc)
      h.h_blocks []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if dirty = [] && not close then Ok ()
  else begin
    let rec chunks acc = function
      | [] -> List.rev acc
      | l ->
        let rec take n acc = function
          | [] -> (List.rev acc, [])
          | rest when n = 0 -> (List.rev acc, rest)
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let c, rest = take writeback_chunk [] l in
        chunks (c :: acc) rest
    in
    let groups = match chunks [] dirty with [] -> [ [] ] | gs -> gs in
    let last = List.length groups - 1 in
    let rec go i = function
      | [] -> Ok ()
      | g :: rest -> (
        let blocks =
          List.map
            (fun (idx, b) ->
              let off = idx * bb in
              let len = Stdlib.max 0 (Stdlib.min bb (h.h_size - off)) in
              (off, Bytes.sub_string b.b_data 0 len))
            g
        in
        match
          rpc t
            (Wire.Writeback
               {
                 client = t.client;
                 path = h.h_path;
                 size = h.h_size;
                 close = close && i = last;
                 blocks;
               })
        with
        | Error e -> Error e
        | Ok _ ->
          List.iter (fun (_, b) -> b.b_dirty <- false) g;
          go (i + 1) rest)
    in
    go 0 groups
  end

(* Poll for pushed invalidations without blocking — the "check the
   wire before trusting the cache" step in front of every local hit. *)
let rec drain_pushes t =
  match t.tr.t_recv ~block:false with
  | Error _ | Ok None -> ()
  | Ok (Some f) ->
    if f.Frame.req_id = Wire.push_req_id then handle_push t f
    else Hashtbl.replace t.pending f.Frame.req_id f;
    drain_pushes t

(* {2 Grants and leases} *)

let apply_grant t h (g : Wire.grant) =
  if g.version <> h.h_version then begin
    (* someone else wrote since our grant: every cached block is stale *)
    h.h_epoch <- h.h_epoch + 1;
    Hashtbl.reset h.h_blocks
  end;
  h.h_version <- g.version;
  h.h_cacheable <- g.cacheable;
  h.h_size <- g.size;
  h.h_sized <- true;
  h.h_expires <- t.tr.t_now () +. g.lease_s

(* A fresh grant for an open handle, in [mode]. Delayed writes are
   committed first: the grant's size replaces the handle's, and a
   downgrade to read-only leaves nothing the server would accept them
   through. *)
let renew t h ~mode =
  match flush_dirty t h ~close:false with
  | Error e -> Error e
  | Ok () -> (
    match rpc t (Wire.Open_grant { client = t.client; path = h.h_path; mode }) with
    | Ok (Wire.Ok_grant g) ->
      h.h_mode <- mode;
      apply_grant t h g;
      Ok ()
    | Ok _ -> Error Errno.EINVAL
    | Error e -> Error e)

(* An expired lease stops local service: flush what we owe, renew.
   Write-through handles renew too, since the lease bounds them as
   well; the news that write sharing ended does not wait for it — the
   server pushes the restoration the moment the last writer goes. *)
let check_lease t h =
  if t.tr.t_now () >= h.h_expires then renew t h ~mode:h.h_mode else Ok ()

(* {2 The file interface} *)

let handle t path =
  match Hashtbl.find_opt t.handles path with
  | Some h -> Ok h
  | None -> Error Errno.EBADF

let open_ t path mode =
  drain_pushes t;
  match Hashtbl.find_opt t.handles path with
  | Some h -> renew t h ~mode
  | None -> (
    match rpc t (Wire.Open_grant { client = t.client; path; mode }) with
    | Error e -> Error e
    | Ok (Wire.Ok_grant g) ->
      let h =
        {
          h_path = path;
          h_mode = mode;
          h_version = g.version;
          h_cacheable = g.cacheable;
          h_size = g.size;
          h_sized = true;
          h_expires = 0.;
          h_epoch = 0;
          h_blocks = Hashtbl.create 16;
        }
      in
      Hashtbl.replace t.handles path h;
      apply_grant t h g;
      Ok ()
    | Ok _ -> Error Errno.EINVAL)

(* Fetch the named blocks in one batched send — N Read frames, one
   write(2) on the socket transport — led by a Stat when a push left
   [h]'s size unknown. Replies are collected in request order; the size
   and each block land in the cache only if no push raced them, and a
   block only below the end of the file. Returns the file size the
   fetch saw — the Stat's, else the handle's — with the blocks. *)
let fetch_blocks t h idxs =
  let epoch = h.h_epoch and size = ref h.h_size in
  let stat = if h.h_sized then [] else [ (fresh_id t, Wire.Stat h.h_path) ] in
  let reqs = List.map (fun idx -> (fresh_id t, idx)) idxs in
  let frames =
    List.map (fun (id, req) -> frame_of_request id req) stat
    @ List.map
        (fun (id, idx) ->
          frame_of_request id
            (Wire.Read
               { client = t.client; path = h.h_path; offset = idx * bb; count = bb }))
        reqs
  in
  let reply id =
    match wait_reply t id with
    | Error e -> Error e
    | Ok f -> (
      match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
      | Ok (Wire.Err e) | Error e -> Error e
      | Ok r -> Ok r)
  in
  let ( let* ) = Result.bind in
  let* () = send t frames in
  let* () =
    match stat with
    | [] -> Ok ()
    | (id, _) :: _ -> (
      match reply id with
      | Ok (Wire.Ok_stat st) ->
        size := st.Wire.size;
        if h.h_epoch = epoch then begin
          h.h_size <- st.Wire.size;
          h.h_sized <- true
        end;
        Ok ()
      | Ok _ -> Error Errno.EINVAL
      | Error e -> Error e)
  in
  let rec collect acc = function
    | [] -> Ok (!size, List.rev acc)
    | (id, idx) :: rest -> (
      match reply id with
      | Error e -> Error e
      | Ok (Wire.Ok_data d) ->
        let s = Data.to_string d in
        let b = Bytes.make bb '\000' in
        Bytes.blit_string s 0 b 0 (Stdlib.min bb (String.length s));
        if h.h_epoch = epoch && h.h_cacheable && idx * bb < h.h_size then
          Hashtbl.replace h.h_blocks idx { b_data = b; b_dirty = false };
        collect ((idx, b) :: acc) rest
      | Ok _ -> Error Errno.EINVAL)
  in
  collect [] reqs

let read t path ~offset ~count =
  if offset < 0 || count < 0 then Error Errno.EINVAL
  else begin
    drain_pushes t;
    match handle t path with
    | Error e -> Error e
    | Ok h -> (
      match check_lease t h with
      | Error e -> Error e
      | Ok () ->
        if not h.h_cacheable then begin
          t.misses <- t.misses + 1;
          match rpc t (Wire.Read { client = t.client; path; offset; count }) with
          | Ok (Wire.Ok_data d) -> Ok (Data.to_string d)
          | Ok _ -> Error Errno.EINVAL
          | Error e -> Error e
        end
        else if count = 0 then Ok ""
        else begin
          (* no file reaches past [max_int]: [offset + count] stays exact *)
          let count = Stdlib.min count (max_int - offset) in
          let first = offset / bb in
          (* the bytes a file of [size] bytes puts under this read, and
             the last block they reach ([first - 1] for none) *)
          let span size = Stdlib.min count (Stdlib.max 0 (size - offset)) in
          let last size =
            let n = span size in
            if n = 0 then first - 1 else (offset + n - 1) / bb
          in
          (* blocks [lo..hi], with the file size they were read at. The
             present ones are snapshotted before the rest are fetched: a
             push racing the fetch may reset the table, but this read
             was issued first and is served from what it saw. *)
          let get lo hi =
            let have = ref [] and missing = ref [] in
            for idx = hi downto lo do
              match Hashtbl.find_opt h.h_blocks idx with
              | Some b -> have := (idx, b.b_data) :: !have
              | None -> missing := idx :: !missing
            done;
            t.hits <- t.hits + List.length !have;
            t.misses <- t.misses + List.length !missing;
            if !missing = [] && h.h_sized then Ok (h.h_size, !have)
            else
              Result.map
                (fun (size, fetched) -> (size, !have @ fetched))
                (fetch_blocks t h !missing)
          in
          (* an unknown size is guessed unchanged, but reaching the
             first block: the fetch's Stat says where the file ends, and
             a second fetch brings any blocks past the guess *)
          let guess =
            if h.h_sized then last h.h_size else Stdlib.max first (last h.h_size)
          in
          let ( let* ) = Result.bind in
          let* size, blocks = get first guess in
          let* _, more =
            if last size > guess then get (guess + 1) (last size) else Ok (size, [])
          in
          let len = span size in
          let out = Bytes.create len in
          List.iter
            (fun (idx, data) ->
              let lo = Stdlib.max offset (idx * bb) in
              let hi = Stdlib.min (offset + len) ((idx + 1) * bb) in
              if hi > lo then
                Bytes.blit data (lo - (idx * bb)) out (lo - offset) (hi - lo))
            (blocks @ more);
          Ok (Bytes.unsafe_to_string out)
        end)
  end

let write t path ~offset ~data =
  let len = String.length data in
  if offset < 0 then Error Errno.EINVAL
  else begin
    drain_pushes t;
    match handle t path with
    | Error e -> Error e
    | Ok h ->
      if h.h_mode = Capfs.Client.RO then Error Errno.EBADF
      else (
        match check_lease t h with
        | Error e -> Error e
        | Ok () ->
          if len = 0 then Ok ()
          else if not (h.h_cacheable && h.h_sized) then begin
            (* write-through: concurrent write sharing, or a size a
               push left unknown — a delayed write merges against it,
               so it waits for the next read or renewal to learn it *)
            match
              rpc t (Wire.Write { client = t.client; path; offset; data })
            with
            | Ok _ ->
              if offset + len > h.h_size then h.h_size <- offset + len;
              Ok ()
            | Error e -> Error e
          end
          else begin
            (* delayed write: merge into local blocks, flush at close
               or lease expiry *)
            let first = offset / bb and last = (offset + len - 1) / bb in
            let rec go idx =
              if idx > last then Ok ()
              else begin
                let lo = Stdlib.max offset (idx * bb) in
                let hi = Stdlib.min (offset + len) ((idx + 1) * bb) in
                let at = lo - (idx * bb) in
                let base =
                  match Hashtbl.find_opt h.h_blocks idx with
                  | Some b -> Ok b
                  | None ->
                    if (at = 0 && hi - lo = bb) || idx * bb >= h.h_size then begin
                      (* whole-block overwrite or past EOF: no fetch *)
                      let b = { b_data = Bytes.make bb '\000'; b_dirty = false } in
                      Hashtbl.replace h.h_blocks idx b;
                      Ok b
                    end
                    else (
                      (* partial overwrite of existing data:
                         read-modify-write *)
                      match fetch_blocks t h [ idx ] with
                      | Error e -> Error e
                      | Ok (_, fetched) -> (
                        match Hashtbl.find_opt h.h_blocks idx with
                        | Some b -> Ok b
                        | None ->
                          (* invalidated mid-fetch: merge into the
                             fetched copy; it flushes at close *)
                          let b =
                            { b_data = List.assoc idx fetched; b_dirty = false }
                          in
                          Hashtbl.replace h.h_blocks idx b;
                          Ok b))
                in
                match base with
                | Error e -> Error e
                | Ok b ->
                  Bytes.blit_string data (lo - offset) b.b_data at (hi - lo);
                  b.b_dirty <- true;
                  go (idx + 1)
              end
            in
            match go first with
            | Error e -> Error e
            | Ok () ->
              if offset + len > h.h_size then h.h_size <- offset + len;
              Ok ()
          end)
  end

let close_ t path =
  drain_pushes t;
  match handle t path with
  | Error e -> Error e
  | Ok h ->
    let dirty =
      Hashtbl.fold (fun _ b n -> if b.b_dirty then n + 1 else n) h.h_blocks 0
    in
    let r =
      if dirty > 0 then flush_dirty t h ~close:true
      else
        match rpc t (Wire.Close { client = t.client; path }) with
        | Ok _ -> Ok ()
        | Error e -> Error e
    in
    Hashtbl.remove t.handles path;
    r

(* {2 Passthroughs} *)

let unit_rpc t req =
  match rpc t req with
  | Ok Wire.Ok_unit -> Ok ()
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let mkdir t path =
  drain_pushes t;
  unit_rpc t (Wire.Mkdir path)

let delete t path =
  drain_pushes t;
  if Hashtbl.mem t.handles path then begin
    (* dirty blocks die with the file, but the grant and the volume
       open must go first: a holder left behind keeps the path
       write-shared for everyone else and turns this client's next
       open into a renewal that skips the create. The Delete's reply
       is the answer either way. *)
    Hashtbl.remove t.handles path;
    ignore (rpc t (Wire.Close { client = t.client; path }))
  end;
  unit_rpc t (Wire.Delete path)

let stat t path =
  drain_pushes t;
  match rpc t (Wire.Stat path) with
  | Ok (Wire.Ok_stat s) -> Ok s
  | Ok _ -> Error Errno.EINVAL
  | Error e -> Error e

let sync t =
  drain_pushes t;
  unit_rpc t Wire.Sync

let disconnect t =
  if not t.closed then begin
    t.closed <- true;
    let paths = Hashtbl.fold (fun p _ acc -> p :: acc) t.handles [] in
    List.iter (fun p -> ignore (close_ t p)) paths;
    t.tr.t_close ()
  end

(* {2 Counters} *)

let local_hits t = t.hits
let remote_misses t = t.misses
let invalidations t = t.invals
let msgs_sent t = t.msgs
let wire_sends t = t.sends

let cached_blocks t =
  Hashtbl.fold (fun _ h n -> n + Hashtbl.length h.h_blocks) t.handles 0

let dirty_blocks t =
  Hashtbl.fold
    (fun _ h n ->
      n + Hashtbl.fold (fun _ b m -> if b.b_dirty then m + 1 else m) h.h_blocks 0)
    t.handles 0

(* {2 Transports} *)

let socket_transport fd =
  let sp = Frame.Splitter.create () in
  let gather = ref (Bytes.create 4096) in
  let readable_now () =
    match Unix.select [ fd ] [] [] 0. with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  let rec next ~block =
    match Frame.Splitter.pop sp with
    | Ok None when block || readable_now () -> (
      match Frame.Splitter.fill sp fd with
      | Ok `Eof -> Error Errno.EIO (* peer gone mid-conversation *)
      | Ok (`Short | `Full) -> next ~block
      | Error e -> Error e)
    | r -> r
  in
  (* the burst back to back as plain frames, one write(2) *)
  let t_send frames =
    let len =
      List.fold_left
        (fun n (f : Frame.t) -> n + Frame.header_bytes + String.length f.payload)
        0 frames
    in
    if Bytes.length !gather < len then
      gather := Bytes.create (Stdlib.max len (2 * Bytes.length !gather));
    let b = !gather in
    ignore
      (List.fold_left
         (fun off (f : Frame.t) ->
           let plen = String.length f.payload in
           Frame.blit_header b off ~req_id:f.req_id ~opcode:f.opcode
             ~payload_len:plen;
           Bytes.blit_string f.payload 0 b (off + Frame.header_bytes) plen;
           off + Frame.header_bytes + plen)
         0 frames);
    match Frame.write_bytes fd b ~len with Ok _ -> Ok () | Error e -> Error e
  in
  {
    t_send;
    t_recv = (fun ~block -> next ~block);
    t_now = Unix.gettimeofday;
    t_close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
  }

let virtual_transport ?now server ~client =
  let inq : Frame.t Queue.t = Queue.create () in
  Server.register_pusher server ~client (fun push ->
      let opcode, payload = Wire.encode_push push in
      Queue.push { Frame.req_id = Wire.push_req_id; opcode; payload } inq);
  let complete_into req_id opcode r =
    let payload = Wire.encode_reply r in
    Queue.push { Frame.req_id; opcode; payload } inq
  in
  let t_send frames =
    List.iter
      (fun (f : Frame.t) ->
        match Wire.decode_request ~opcode:f.opcode f.payload with
        | Error e -> complete_into f.req_id f.opcode (Wire.Err e)
        | Ok req -> (
          match
            Server.submit server req
              ~complete:(fun r -> complete_into f.req_id f.opcode r)
          with
          | Ok () -> ()
          | Error e -> complete_into f.req_id f.opcode (Wire.Err e)))
      frames;
    Ok ()
  in
  let t_recv ~block =
    if Queue.is_empty inq then Server.drive server;
    match Queue.take_opt inq with
    | Some f -> Ok (Some f)
    | None -> if block then Error Errno.EIO else Ok None
  in
  {
    t_send;
    t_recv;
    t_now = (match now with Some f -> f | None -> fun () -> 0.);
    t_close = (fun () -> Server.drop_client server ~client);
  }

let over_link net tr =
  let charge (f : Frame.t) =
    Netlink.transfer net ~bytes:(String.length f.payload)
  in
  {
    tr with
    t_send =
      (fun frames ->
        List.iter charge frames;
        tr.t_send frames);
    t_recv =
      (fun ~block ->
        match tr.t_recv ~block with
        | Ok (Some f) as r ->
          charge f;
          r
        | r -> r);
    t_now = (fun () -> Netlink.now net);
  }
