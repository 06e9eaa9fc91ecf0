module Sched = Capfs_sched.Sched
module Cache = Capfs_cache.Cache
module Key = Capfs_cache.Block.Key
module Layout = Capfs_layout.Layout
module Inode = Capfs_layout.Inode
module Data = Capfs_disk.Data
module Errno = Capfs_core.Errno

type t = {
  fsys : Fsys.t;
  inode : Inode.t;
  fill : Key.t -> Data.t; (* one layout-read closure per file, not per read *)
  mutable opens : int;
  mutable mm_high_water : int; (* furthest block read, for prefetch *)
  mutable mm_running : bool;
}

let mm_window_blocks = 32

let instantiate fsys inode =
  let fill key =
    Errno.ok_exn (fsys.Fsys.layout.Layout.read_block inode (Key.index key))
  in
  { fsys; inode; fill; opens = 0; mm_high_water = 0; mm_running = false }

let inode t = t.inode
let ino t = t.inode.Inode.ino
let kind t = t.inode.Inode.kind
let size t = t.inode.Inode.size

let block_bytes t = t.fsys.Fsys.config.Fsys.block_bytes

let read_cached_block t idx =
  Cache.read t.fsys.Fsys.cache (Key.v (ino t) idx) ~fill:t.fill

(* {2 Multimedia prefetch fibre} *)

let mm_prefetch_loop t () =
  let bb = block_bytes t in
  while t.mm_running && t.opens > 0 do
    let last_block = (Stdlib.max 0 (size t - 1)) / bb in
    let target = Stdlib.min last_block (t.mm_high_water + mm_window_blocks) in
    let rec preload idx =
      if idx <= target && t.mm_running then begin
        ignore (read_cached_block t idx);
        preload (idx + 1)
      end
    in
    preload t.mm_high_water;
    (* wake up often enough to stay ahead of a real-time reader *)
    Sched.sleep t.fsys.Fsys.sched 0.005
  done;
  t.mm_running <- false

let maybe_start_mm t =
  if kind t = Inode.Multimedia && not t.mm_running then begin
    t.mm_running <- true;
    ignore
      (Sched.spawn t.fsys.Fsys.sched
         ~name:(Printf.sprintf "mm-%d" (ino t))
         ~daemon:true (mm_prefetch_loop t))
  end

let opened t =
  t.opens <- t.opens + 1;
  maybe_start_mm t

let closed t =
  if t.opens <= 0 then invalid_arg "File.closed: not open";
  t.opens <- t.opens - 1;
  if t.opens = 0 then t.mm_running <- false

let open_count t = t.opens

(* {2 Reads} *)

(* The length a read actually covers (short at EOF, 0 past it); also
   moves the multimedia prefetch window up to the read's last block. *)
let clip_read t ~offset ~bytes =
  if offset < 0 || bytes < 0 then invalid_arg "File.read: negative range";
  let len = Stdlib.min bytes (Stdlib.max 0 (size t - offset)) in
  if len > 0 && kind t = Inode.Multimedia then
    t.mm_high_water <-
      Stdlib.max t.mm_high_water ((offset + len - 1) / block_bytes t);
  len

let note_access t =
  if t.fsys.Fsys.config.Fsys.track_atime then begin
    t.inode.Inode.atime <- Fsys.now t.fsys;
    t.fsys.Fsys.layout.Layout.update_inode t.inode
  end

(* Fetch each block of [offset, offset + len) in order and pass its
   piece to [own] at once. A piece is a borrowed [Data.sub] view of the
   cached block, valid only until this fibre next yields — and the next
   block's fetch may yield on a disk fill, during which a writer can
   replace an earlier block and the fill can reuse its slab cell. So
   [own] must retain or copy the piece before returning. The owned
   pieces come back in order; if a later fetch raises, each is
   released on the way out. *)
let read_pieces t ~offset ~len ~own =
  let bb = block_bytes t in
  let last = (offset + len - 1) / bb in
  let rec go idx =
    if idx > last then []
    else begin
      let block = read_cached_block t idx in
      let lo = Stdlib.max offset (idx * bb) in
      let hi = Stdlib.min (offset + len) ((idx + 1) * bb) in
      let piece =
        own (Data.sub block ~pos:(lo - (idx * bb)) ~len:(hi - lo))
      in
      match go (idx + 1) with
      | rest -> piece :: rest
      | exception e ->
        Data.release piece;
        raise e
    end
  in
  go (offset / bb)

let retained piece =
  Data.retain piece;
  piece

let read t ~offset ~bytes =
  let len = clip_read t ~offset ~bytes in
  if len = 0 then Data.sim 0
  else begin
    let bb = block_bytes t in
    let first = offset / bb in
    let result =
      if (offset + len - 1) / bb = first then
        (* common case: the range lives in one block — no part list,
           no concat *)
        Data.sub (read_cached_block t first) ~pos:(offset - (first * bb)) ~len
      else begin
        let pieces = read_pieces t ~offset ~len ~own:retained in
        let out = Data.concat pieces in
        List.iter Data.release pieces;
        out
      end
    in
    note_access t;
    result
  end

let read_into t arena ~offset ~bytes =
  let len = clip_read t ~offset ~bytes in
  if len = 0 then Data.sim 0
  else begin
    let pieces =
      read_pieces t ~offset ~len ~own:(Capfs_disk.Arena.copy_in arena)
    in
    note_access t;
    Data.gather pieces
  end

(* {2 Writes} *)

(* Merge [src] into [old] at [at]: real+real blits bytes; anything
   simulated stays simulated (there are no bytes to preserve). *)
let merge_block ~block_bytes ~old ~at src =
  match old with
  | Data.Real _ | Data.Gather _ | Data.Slice _ ->
    let merged = Bytes.make block_bytes '\000' in
    Bytes.blit_string (Data.to_string old) 0 merged 0
      (Stdlib.min block_bytes (Data.length old));
    let out = Data.Real merged in
    Data.blit ~src ~src_pos:0 ~dst:out ~dst_pos:at ~len:(Data.length src);
    out
  | Data.Sim _ ->
    (* a hole (or simulated contents, which hold no bytes anyway):
       merge real data into zeroes *)
    if Data.is_real src then begin
      let out = Data.real block_bytes in
      Data.blit ~src ~src_pos:0 ~dst:out ~dst_pos:at ~len:(Data.length src);
      out
    end
    else Data.sim block_bytes

let write t ~offset data =
  if offset < 0 then invalid_arg "File.write: negative offset";
  let bb = block_bytes t in
  let len = Data.length data in
  if len > 0 then begin
    let first = offset / bb and last = (offset + len - 1) / bb in
    for idx = first to last do
      let lo = Stdlib.max offset (idx * bb) in
      let hi = Stdlib.min (offset + len) ((idx + 1) * bb) in
      (* a payload within one block goes to the cache as it came *)
      let slice =
        if first = last then data
        else Data.sub data ~pos:(lo - offset) ~len:(hi - lo)
      in
      let at = lo - (idx * bb) in
      let whole_block = at = 0 && hi - lo = bb in
      let covers_tail =
        (* a partial block that starts at 0 and reaches EOF needs no
           read-modify-write: there is nothing beyond to preserve *)
        at = 0 && lo + (hi - lo) >= size t
      in
      let block_data =
        if whole_block then
          (* [slice] is exactly one block long: a real one is a fresh
             copy or the caller's own payload, which [Client.write]
             takes ownership of; simulated ones are immutable — use it
             as-is *)
          slice
        else if covers_tail
                && not (Cache.contains t.fsys.Fsys.cache (Key.v (ino t) idx))
                && Inode.get_addr t.inode idx = Inode.addr_none then
          (* fresh tail block: pad to a block *)
          if Data.is_real slice then begin
            let out = Data.real bb in
            Data.blit ~src:slice ~src_pos:0 ~dst:out ~dst_pos:0
              ~len:(Data.length slice);
            out
          end
          else Data.sim bb
        else begin
          let old = read_cached_block t idx in
          merge_block ~block_bytes:bb ~old ~at slice
        end
      in
      Cache.write t.fsys.Fsys.cache (Key.v (ino t) idx) block_data
    done;
    let new_size = Stdlib.max (size t) (offset + len) in
    t.inode.Inode.size <- new_size;
    t.inode.Inode.mtime <- Fsys.now t.fsys;
    t.fsys.Fsys.layout.Layout.update_inode t.inode
  end

let truncate t ~size:new_size =
  if new_size < 0 then invalid_arg "File.truncate: negative size";
  let bb = block_bytes t in
  let old_size = size t in
  if new_size < old_size then begin
    let keep_blocks = (new_size + bb - 1) / bb in
    Cache.truncate t.fsys.Fsys.cache (ino t) ~from:keep_blocks;
    Errno.ok_exn
      (t.fsys.Fsys.layout.Layout.truncate t.inode ~blocks:keep_blocks)
  end;
  t.inode.Inode.size <- new_size;
  t.inode.Inode.mtime <- Fsys.now t.fsys;
  t.fsys.Fsys.layout.Layout.update_inode t.inode

let drop_cached t = Cache.remove_file t.fsys.Fsys.cache (ino t)

let flush t = Cache.flush_file t.fsys.Fsys.cache (ino t)
