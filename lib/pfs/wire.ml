module Errno = Capfs_core.Errno
module Data = Capfs_disk.Data

type stat = { size : int; is_dir : bool }
type grant = { version : int; cacheable : bool; lease_s : float; size : int }

type request =
  | Open of { client : int; path : string; mode : Capfs.Client.open_mode }
  | Close of { client : int; path : string }
  | Read of { client : int; path : string; offset : int; count : int }
  | Write of { client : int; path : string; offset : int; data : string }
  | Mkdir of string
  | Delete of string
  | Stat of string
  | Sync
  | Stats
  | Shutdown
  | Open_grant of {
      client : int;
      path : string;
      mode : Capfs.Client.open_mode;
    }
  | Writeback of {
      client : int;
      path : string;
      size : int;
      close : bool;
      blocks : (int * string) list;
    }
  | Rename of { src : string; dst : string }
  | Readdir of string
  | Rmdir of string
  | Symlink of { target : string; path : string }
  | Readlink of string
  | Truncate of { path : string; size : int }

type reply =
  | Ok_unit
  | Ok_data of Data.t
  | Ok_stat of stat
  | Ok_stats of string
  | Ok_grant of grant
  | Ok_names of string list
  | Ok_link of string
  | Err of Errno.t

type push = Invalidate of { path : string; version : int; cacheable : bool }

let op_open = 1
let op_close = 2
let op_read = 3
let op_write = 4
let op_mkdir = 5
let op_delete = 6
let op_stat = 7
let op_sync = 8
let op_stats = 9
let op_shutdown = 10
let op_open_grant = 11
let op_writeback = 12
let op_invalidate = 13
(* 14 is retired: older peers sent batch containers under it *)
let op_rename = 15
let op_readdir = 16
let op_rmdir = 17
let op_symlink = 18
let op_readlink = 19
let op_truncate = 20

(* Server-pushed frames ride the reply path with a req_id no client ever
   issues; clients demultiplex on it before consulting their in-flight
   table. *)
let push_req_id = 0xfffffff0

let opcode = function
  | Open _ -> op_open
  | Close _ -> op_close
  | Read _ -> op_read
  | Write _ -> op_write
  | Mkdir _ -> op_mkdir
  | Delete _ -> op_delete
  | Stat _ -> op_stat
  | Sync -> op_sync
  | Stats -> op_stats
  | Shutdown -> op_shutdown
  | Open_grant _ -> op_open_grant
  | Writeback _ -> op_writeback
  | Rename _ -> op_rename
  | Readdir _ -> op_readdir
  | Rmdir _ -> op_rmdir
  | Symlink _ -> op_symlink
  | Readlink _ -> op_readlink
  | Truncate _ -> op_truncate

let route_path = function
  | Open { path; _ } | Close { path; _ } | Read { path; _ }
  | Write { path; _ }
  | Open_grant { path; _ }
  | Writeback { path; _ }
  | Symlink { path; _ }
  | Truncate { path; _ } ->
    Some path
  | Rename { src; _ } -> Some src
  | Mkdir p | Delete p | Stat p | Readdir p | Rmdir p | Readlink p -> Some p
  | Sync | Stats | Shutdown -> None

(* {2 Payload codecs}

   Strings are u16-LE length + bytes; integers are u32 LE. A [Write]'s
   data is the unprefixed tail of the payload: the frame header already
   carries the total length, so the data needs no second one. *)

exception Short

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let add_str b s =
  if String.length s > 0xffff then invalid_arg "Wire: path too long";
  Buffer.add_uint16_le b (String.length s);
  Buffer.add_string b s

(* A read cursor over the window [buf.(pos..stop)]: every bound is
   checked against [stop], so a hostile length never reads past the
   window even when [buf] holds more bytes beyond it. *)
type cursor = { buf : Bytes.t; mutable pos : int; stop : int }

let cursor_of_string s =
  { buf = Bytes.unsafe_of_string s; pos = 0; stop = String.length s }

let get_u8 c =
  if c.pos + 1 > c.stop then raise Short;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  if c.pos + 4 > c.stop then raise Short;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  v land 0xffffffff

let get_bytes c n =
  if c.pos + n > c.stop then raise Short;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_str c =
  if c.pos + 2 > c.stop then raise Short;
  let n = Bytes.get_uint16_le c.buf c.pos in
  c.pos <- c.pos + 2;
  get_bytes c n

let get_rest c = get_bytes c (c.stop - c.pos)

let mode_byte = function Capfs.Client.RO -> 0 | WO -> 1 | RW -> 2

let mode_of_byte = function
  | 0 -> Capfs.Client.RO
  | 1 -> WO
  | 2 -> RW
  | _ -> raise Short

let encode_request r =
  let b = Buffer.create 64 in
  (match r with
  | Open { client; path; mode } ->
    add_u32 b client;
    add_u8 b (mode_byte mode);
    add_str b path
  | Close { client; path } ->
    add_u32 b client;
    add_str b path
  | Read { client; path; offset; count } ->
    add_u32 b client;
    add_u32 b offset;
    add_u32 b count;
    add_str b path
  | Write { client; path; offset; data } ->
    add_u32 b client;
    add_u32 b offset;
    add_str b path;
    Buffer.add_string b data
  | Mkdir p | Delete p | Stat p | Readdir p | Rmdir p | Readlink p ->
    add_str b p
  | Sync | Stats | Shutdown -> ()
  | Open_grant { client; path; mode } ->
    add_u32 b client;
    add_u8 b (mode_byte mode);
    add_str b path
  | Writeback { client; path; size; close; blocks } ->
    add_u32 b client;
    add_u32 b size;
    add_u8 b (if close then 1 else 0);
    add_str b path;
    add_u32 b (List.length blocks);
    List.iter
      (fun (off, data) ->
        add_u32 b off;
        add_u32 b (String.length data);
        Buffer.add_string b data)
      blocks
  | Rename { src; dst } ->
    add_str b src;
    add_str b dst
  | Symlink { target; path } ->
    add_str b target;
    add_str b path
  | Truncate { path; size } ->
    add_u32 b size;
    add_str b path);
  (opcode r, Buffer.contents b)

let decode_request_window ~opcode buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Wire.decode_request_window";
  let c = { buf; pos = off; stop = off + len } in
  match
    if opcode = op_open then begin
      let client = get_u32 c in
      let mode = mode_of_byte (get_u8 c) in
      let path = get_str c in
      Open { client; path; mode }
    end
    else if opcode = op_close then begin
      let client = get_u32 c in
      let path = get_str c in
      Close { client; path }
    end
    else if opcode = op_read then begin
      let client = get_u32 c in
      let offset = get_u32 c in
      let count = get_u32 c in
      let path = get_str c in
      Read { client; path; offset; count }
    end
    else if opcode = op_write then begin
      let client = get_u32 c in
      let offset = get_u32 c in
      let path = get_str c in
      let data = get_rest c in
      Write { client; path; offset; data }
    end
    else if opcode = op_mkdir then Mkdir (get_str c)
    else if opcode = op_delete then Delete (get_str c)
    else if opcode = op_stat then Stat (get_str c)
    else if opcode = op_sync then Sync
    else if opcode = op_stats then Stats
    else if opcode = op_shutdown then Shutdown
    else if opcode = op_open_grant then begin
      let client = get_u32 c in
      let mode = mode_of_byte (get_u8 c) in
      let path = get_str c in
      Open_grant { client; path; mode }
    end
    else if opcode = op_writeback then begin
      let client = get_u32 c in
      let size = get_u32 c in
      let close = get_u8 c = 1 in
      let path = get_str c in
      let n = get_u32 c in
      (* each block needs >= 8 header bytes: a hostile count can't force
         a huge list allocation past the payload it actually shipped *)
      if n * 8 > c.stop - c.pos then raise Short;
      let blocks =
        List.init n (fun _ ->
            let off = get_u32 c in
            let data = get_bytes c (get_u32 c) in
            (off, data))
      in
      Writeback { client; path; size; close; blocks }
    end
    else if opcode = op_rename then begin
      let src = get_str c in
      let dst = get_str c in
      Rename { src; dst }
    end
    else if opcode = op_readdir then Readdir (get_str c)
    else if opcode = op_rmdir then Rmdir (get_str c)
    else if opcode = op_symlink then begin
      let target = get_str c in
      let path = get_str c in
      Symlink { target; path }
    end
    else if opcode = op_readlink then Readlink (get_str c)
    else if opcode = op_truncate then begin
      let size = get_u32 c in
      let path = get_str c in
      Truncate { path; size }
    end
    else raise Short
  with
  | r -> Ok r
  | exception Short -> Error Errno.EINVAL

let decode_request ~opcode payload =
  decode_request_window ~opcode (Bytes.unsafe_of_string payload) ~off:0
    ~len:(String.length payload)

(* Reply status byte: 0 for success, [1 + Errno.to_index e] for a typed
   failure — the same closed errno vocabulary on the wire as in the
   API. The reply codec is blit-based: the writer fibre lays replies
   straight into its gather buffer ([blit_reply]), so an [Ok_data]
   payload moves from the cached blocks to the socket buffer with no
   intermediate string. [encode_reply] is the same codec run against a fresh
   buffer. *)

let reply_bytes = function
  | Ok_unit | Err _ -> 1
  | Ok_data d -> 1 + Data.length d
  | Ok_stat _ -> 1 + 5
  | Ok_stats s | Ok_link s -> 1 + String.length s
  | Ok_grant _ -> 1 + 13
  | Ok_names names ->
    List.fold_left (fun n s -> n + 2 + String.length s) (1 + 4) names

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let blit_reply r b off =
  match r with
  | Ok_unit -> Bytes.set_uint8 b off 0
  | Err e -> Bytes.set_uint8 b off (1 + Errno.to_index e)
  | Ok_data d ->
    Bytes.set_uint8 b off 0;
    Data.blit ~src:d ~src_pos:0 ~dst:(Data.Real b) ~dst_pos:(off + 1)
      ~len:(Data.length d)
  | Ok_stat { size; is_dir } ->
    Bytes.set_uint8 b off 0;
    set_u32 b (off + 1) size;
    Bytes.set_uint8 b (off + 5) (if is_dir then 1 else 0)
  | Ok_stats s | Ok_link s ->
    Bytes.set_uint8 b off 0;
    Bytes.blit_string s 0 b (off + 1) (String.length s)
  | Ok_names names ->
    Bytes.set_uint8 b off 0;
    set_u32 b (off + 1) (List.length names);
    ignore
      (List.fold_left
         (fun pos s ->
           let n = String.length s in
           Bytes.set_uint16_le b pos n;
           Bytes.blit_string s 0 b (pos + 2) n;
           pos + 2 + n)
         (off + 5) names)
  | Ok_grant { version; cacheable; lease_s; size } ->
    Bytes.set_uint8 b off 0;
    set_u32 b (off + 1) version;
    Bytes.set_uint8 b (off + 5) (if cacheable then 1 else 0);
    (* lease travels as u32 milliseconds, rounded: truncation would
       turn 1.001 s into 1.000 s *)
    set_u32 b (off + 6) (int_of_float (Float.round (lease_s *. 1000.)));
    set_u32 b (off + 10) size

let encode_reply r =
  let n = reply_bytes r in
  let b = Bytes.create n in
  blit_reply r b 0;
  Bytes.unsafe_to_string b

let decode_reply ~opcode payload =
  let c = cursor_of_string payload in
  match
    let status = get_u8 c in
    if status > 0 then begin
      let i = status - 1 in
      if i >= Array.length Errno.all then raise Short else Err Errno.all.(i)
    end
    else if opcode = op_read || opcode = op_write then
      if opcode = op_read then
        Ok_data (Data.Real (Bytes.unsafe_of_string (get_rest c)))
      else Ok_unit
    else if opcode = op_stat then begin
      let size = get_u32 c in
      let is_dir = get_u8 c = 1 in
      Ok_stat { size; is_dir }
    end
    else if opcode = op_stats then Ok_stats (get_rest c)
    else if opcode = op_open_grant then begin
      let version = get_u32 c in
      let cacheable = get_u8 c = 1 in
      let lease_s = float_of_int (get_u32 c) /. 1000. in
      let size = get_u32 c in
      Ok_grant { version; cacheable; lease_s; size }
    end
    else if opcode = op_readdir then begin
      let n = get_u32 c in
      (* each name needs >= 2 length bytes: a hostile count can't force
         a huge list allocation *)
      if n * 2 > c.stop - c.pos then raise Short;
      Ok_names (List.init n (fun _ -> get_str c))
    end
    else if opcode = op_readlink then Ok_link (get_rest c)
    else Ok_unit
  with
  | r -> Ok r
  | exception Short -> Error Errno.EINVAL

(* {2 Server pushes}

   An [Invalidate] is a server-initiated frame: same header, the
   reserved {!push_req_id}, its own opcode. *)

let encode_push (Invalidate { path; version; cacheable }) =
  let b = Buffer.create 32 in
  add_u32 b version;
  add_u8 b (if cacheable then 1 else 0);
  add_str b path;
  (op_invalidate, Buffer.contents b)

let decode_push ~opcode payload =
  if opcode <> op_invalidate then Error Errno.EINVAL
  else
    let c = cursor_of_string payload in
    match
      let version = get_u32 c in
      let cacheable = get_u8 c = 1 in
      let path = get_str c in
      Invalidate { path; version; cacheable }
    with
    | p -> Ok p
    | exception Short -> Error Errno.EINVAL

let pp_reply ppf = function
  | Ok_unit -> Format.pp_print_string ppf "ok"
  | Ok_data d -> Format.fprintf ppf "ok (%d bytes)" (Data.length d)
  | Ok_stat { size; is_dir } ->
    Format.fprintf ppf "ok (%s, %d bytes)"
      (if is_dir then "dir" else "file")
      size
  | Ok_stats s -> Format.fprintf ppf "ok (stats, %d bytes)" (String.length s)
  | Ok_names names ->
    Format.fprintf ppf "ok [%s]" (String.concat ", " names)
  | Ok_link target -> Format.fprintf ppf "ok -> %s" target
  | Ok_grant { version; cacheable; lease_s; size } ->
    Format.fprintf ppf "ok (grant v%d %s lease %.1fs, %d bytes)" version
      (if cacheable then "cacheable" else "uncacheable")
      lease_s size
  | Err e -> Format.fprintf ppf "error %s" (Errno.to_string e)
