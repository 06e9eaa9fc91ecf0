module Sched = Capfs_sched.Sched
module Sync = Capfs_sched.Sync

let header_bytes = 160

type t = {
  sched : Sched.t;
  bandwidth : float;
  latency : float;
  medium : Sync.Mutex.t;
  mutable carried : int;
}

let ethernet_10 sched =
  {
    sched;
    bandwidth = 10.0e6 /. 8.;
    latency = 0.5e-3;
    medium = Sync.Mutex.create ~name:"ether10" sched;
    carried = 0;
  }

let now t = Sched.now t.sched

module Frame = struct
  module Errno = Capfs_core.Errno

  let header_bytes = 16
  let magic = 0xCAF5
  let default_max_payload = 1 lsl 20

  type t = { req_id : int; opcode : int; payload : string }

  (* header layout, little-endian: magic u16 | opcode u16 | req_id u32 |
     payload_len u32 | reserved u32 (zero) *)
  let blit_header b off ~req_id ~opcode ~payload_len =
    Bytes.set_uint16_le b off magic;
    Bytes.set_uint16_le b (off + 2) (opcode land 0xffff);
    Bytes.set_int32_le b (off + 4) (Int32.of_int req_id);
    Bytes.set_int32_le b (off + 8) (Int32.of_int payload_len);
    Bytes.set_int32_le b (off + 12) 0l

  let to_bytes f =
    let b = Bytes.create (header_bytes + String.length f.payload) in
    blit_header b 0 ~req_id:f.req_id ~opcode:f.opcode
      ~payload_len:(String.length f.payload);
    Bytes.blit_string f.payload 0 b header_bytes (String.length f.payload);
    b

  (* Retry-on-EINTR write loop; short writes restart at the cut. With
     [sched], EAGAIN on a non-blocking fd backs off through the
     scheduler so the writing fibre never spins a whole domain. Returns
     the number of write(2) calls that moved bytes — the gather writer's
     syscall counter. *)
  let write_bytes ?sched fd b ~len =
    let rec go off syscalls =
      if off >= len then Ok syscalls
      else
        match Unix.write fd b off (len - off) with
        | 0 -> Error Errno.EIO
        | k -> go (off + k) (syscalls + 1)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off syscalls
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> (
          match sched with
          | Some s ->
            Capfs_sched.Sched.sleep s 0.0002;
            go off syscalls
          | None -> Error Errno.EAGAIN)
        | exception Unix.Unix_error (e, _, _) -> Error (Errno.of_unix e)
    in
    go 0 0

  let write ?sched fd f =
    let b = to_bytes f in
    match write_bytes ?sched fd b ~len:(Bytes.length b) with
    | Ok _ -> Ok ()
    | Error _ as e -> e

  (* Header fields at [b.(o)]. req_id is a u32: mask off the sign
     extension so ids in the reserved high range (server pushes) survive
     the round trip. *)
  let opcode_at b o = Bytes.get_uint16_le b (o + 2)
  let req_id_at b o = Int32.to_int (Bytes.get_int32_le b (o + 4)) land 0xffffffff
  let len_at b o = Int32.to_int (Bytes.get_int32_le b (o + 8))

  let bad_header b o ~max_payload =
    Bytes.get_uint16_le b o <> magic
    ||
    let len = len_at b o in
    len < 0 || len > max_payload

  (* Returns [Ok None] on a clean EOF at a frame boundary; EOF mid-header
     or mid-payload is a torn frame — [Error EIO]. *)
  let read ?(max_payload = default_max_payload) fd =
    let rec read_exact b off len started =
      if len = 0 then Ok true
      else
        match Unix.read fd b off len with
        | 0 -> if started then Error Errno.EIO else Ok false
        | k -> read_exact b (off + k) (len - k) true
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          read_exact b off len started
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* someone marked the fd non-blocking without a scheduler to
             park on: yielding the CPU briefly is the least-wrong answer *)
          ignore (Unix.select [ fd ] [] [] 0.05);
          read_exact b off len started
        | exception Unix.Unix_error (e, _, _) -> Error (Errno.of_unix e)
    in
    let hdr = Bytes.create header_bytes in
    match read_exact hdr 0 header_bytes false with
    | Error _ as e -> e
    | Ok false -> Ok None
    | Ok true ->
      if bad_header hdr 0 ~max_payload then Error Errno.EINVAL
      else
        let pb = Bytes.create (len_at hdr 0) in
        match read_exact pb 0 (Bytes.length pb) true with
        | Error _ as e -> e
        | Ok _ ->
          Ok
            (Some
               {
                 req_id = req_id_at hdr 0;
                 opcode = opcode_at hdr 0;
                 payload = Bytes.unsafe_to_string pb;
               })

  (* Incremental reassembly in one growable buffer. [fill] reads the fd
     straight into the free tail; [feed] copies caller-supplied chunks
     there. Protocol errors are sticky: once the stream desynchronizes
     there is no resync point. *)
  module Splitter = struct
    type t = {
      mutable buf : Bytes.t;
      mutable start : int; (* first unconsumed byte *)
      mutable fill : int; (* one past the last byte *)
      max_payload : int;
      mutable failed : Errno.t option;
    }

    (* room for a burst: a [fill] takes whatever the kernel holds, up to
       the free tail *)
    let create ?(max_payload = default_max_payload) () =
      { buf = Bytes.create 65536; start = 0; fill = 0; max_payload;
        failed = None }

    let avail t = t.fill - t.start

    let ensure t n =
      if t.fill + n > Bytes.length t.buf then begin
        let live = avail t in
        if live + n <= Bytes.length t.buf then begin
          Bytes.blit t.buf t.start t.buf 0 live;
          t.start <- 0;
          t.fill <- live
        end
        else begin
          let cap = ref (Bytes.length t.buf) in
          while live + n > !cap do
            cap := !cap * 2
          done;
          let nb = Bytes.create !cap in
          Bytes.blit t.buf t.start nb 0 live;
          t.buf <- nb;
          t.start <- 0;
          t.fill <- live
        end
      end

    let feed t b off len =
      if off < 0 || len < 0 || off + len > Bytes.length b then
        invalid_arg "Splitter.feed";
      ensure t len;
      Bytes.blit b off t.buf t.fill len;
      t.fill <- t.fill + len

    let fail t =
      t.failed <- Some Errno.EINVAL;
      Error Errno.EINVAL

    let fill t fd =
      let header = avail t >= header_bytes in
      match t.failed with
      | Some e -> Error e
      | None when header && bad_header t.buf t.start ~max_payload:t.max_payload
        ->
        (* checked before the buffer grows to hold the frame *)
        fail t
      | None ->
        let need =
          if header then header_bytes + len_at t.buf t.start - avail t else 0
        in
        (* a read is offered at least a page, compacting first if the
           tail is shorter *)
        ensure t (Stdlib.max need 4096);
        let room = Bytes.length t.buf - t.fill in
        let rec go () =
          match Unix.read fd t.buf t.fill room with
          | 0 -> Ok `Eof
          | n ->
            t.fill <- t.fill + n;
            Ok (if n < room then `Short else `Full)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (e, _, _) -> Error (Errno.of_unix e)
        in
        go ()

    let pop_with t f =
      match t.failed with
      | Some e -> Error e
      | None ->
        let b = t.buf and o = t.start in
        if avail t < header_bytes then Ok None
        else if bad_header b o ~max_payload:t.max_payload then fail t
        else begin
          let len = len_at b o in
          if avail t < header_bytes + len then Ok None
          else begin
            t.start <- o + header_bytes + len;
            if t.start = t.fill then begin
              t.start <- 0;
              t.fill <- 0
            end;
            Ok
              (Some
                 (f ~req_id:(req_id_at b o) ~opcode:(opcode_at b o) b
                    (o + header_bytes) len))
          end
        end

    let pop t =
      pop_with t (fun ~req_id ~opcode b off len ->
          { req_id; opcode; payload = Bytes.sub_string b off len })
  end
end

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Netlink.transfer: negative size";
  let wire = bytes + header_bytes in
  Sync.Mutex.with_lock t.medium (fun () ->
      let dt = t.latency +. (float_of_int wire /. t.bandwidth) in
      Sched.sleep t.sched dt;
      t.carried <- t.carried + bytes)

let bytes_carried t = t.carried
