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

  (* Reassembly loop shared by the blocking and fibre readers: [wait]
     is what to do when the fd has no bytes yet (block, or park the
     fibre on the scheduler's readiness list). Returns [Ok None] on a
     clean EOF at a frame boundary; EOF mid-header or mid-payload is a
     torn frame — [Error EIO]. *)
  let read_into ~wait fd =
    let read_exact b off len ~started =
      let rec go off len started =
        if len = 0 then Ok true
        else
          match Unix.read fd b off len with
          | 0 -> if started then Error Errno.EIO else Ok false
          | k -> go (off + k) (len - k) true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len started
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            wait ();
            go off len started
          | exception Unix.Unix_error (e, _, _) -> Error (Errno.of_unix e)
      in
      go off len started
    in
    fun ~max_payload ->
      let hdr = Bytes.create header_bytes in
      match read_exact hdr 0 header_bytes ~started:false with
      | Error _ as e -> e
      | Ok false -> Ok None
      | Ok true ->
        if Bytes.get_uint16_le hdr 0 <> magic then Error Errno.EINVAL
        else begin
          let opcode = Bytes.get_uint16_le hdr 2 in
          (* u32: mask off the sign extension so ids in the reserved
             high range (server pushes) survive the round trip *)
          let req_id =
            Int32.to_int (Bytes.get_int32_le hdr 4) land 0xffffffff
          in
          let len = Int32.to_int (Bytes.get_int32_le hdr 8) in
          if len < 0 || len > max_payload then Error Errno.EINVAL
          else
            let pb = Bytes.create len in
            match read_exact pb 0 len ~started:true with
            | Error _ as e -> e
            | Ok _ ->
              Ok
                (Some
                   { req_id; opcode; payload = Bytes.unsafe_to_string pb })
        end

  let read ?(max_payload = default_max_payload) fd =
    (* blocking fd: an EAGAIN here means someone marked it non-blocking
       without a scheduler to park on — yielding the CPU briefly is the
       least-wrong answer *)
    read_into ~wait:(fun () -> ignore (Unix.select [ fd ] [] [] 0.05)) fd
      ~max_payload

  let read_sched ?(max_payload = default_max_payload) sched fd =
    read_into
      ~wait:(fun () -> Capfs_sched.Sched.wait_readable sched fd)
      fd ~max_payload

  (* Incremental reassembly over caller-supplied chunks, for readers that
     drain an fd opportunistically (the cached client polling for pushed
     invalidations) instead of parking on it. Protocol errors are sticky:
     once the stream desynchronizes there is no resync point. *)
  module Splitter = struct
    type t = {
      mutable buf : Bytes.t;
      mutable start : int; (* first unconsumed byte *)
      mutable fill : int; (* one past the last byte *)
      max_payload : int;
      mutable failed : Errno.t option;
    }

    let create ?(max_payload = default_max_payload) () =
      { buf = Bytes.create 4096; start = 0; fill = 0; max_payload;
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

    let pop t =
      match t.failed with
      | Some e -> Error e
      | None ->
        if avail t < header_bytes then Ok None
        else begin
          let b = t.buf and o = t.start in
          if Bytes.get_uint16_le b o <> magic then begin
            t.failed <- Some Errno.EINVAL;
            Error Errno.EINVAL
          end
          else begin
            let opcode = Bytes.get_uint16_le b (o + 2) in
            (* u32, like [read_into]: no sign extension on req_id *)
            let req_id =
              Int32.to_int (Bytes.get_int32_le b (o + 4)) land 0xffffffff
            in
            let len = Int32.to_int (Bytes.get_int32_le b (o + 8)) in
            if len < 0 || len > t.max_payload then begin
              t.failed <- Some Errno.EINVAL;
              Error Errno.EINVAL
            end
            else if avail t < header_bytes + len then Ok None
            else begin
              let payload = Bytes.sub_string b (o + header_bytes) len in
              t.start <- t.start + header_bytes + len;
              if t.start = t.fill then begin
                t.start <- 0;
                t.fill <- 0
              end;
              Ok (Some { req_id; opcode; payload })
            end
          end
        end
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
