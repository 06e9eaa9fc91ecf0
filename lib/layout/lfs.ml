module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Errno = Capfs_core.Errno
module Stats = Capfs_stats
module Counter = Capfs_stats.Counter
module Tracer = Capfs_obs.Tracer
module Ev = Capfs_obs.Event

let src = Logs.Src.create "capfs.lfs" ~doc:"segmented log-structured layout"

module Log = (val Logs.src_log src : Logs.LOG)

type cleaner_policy = Greedy | Cost_benefit

type config = {
  seg_blocks : int;
  checkpoint_blocks : int;
  cleaner : cleaner_policy;
  min_free_segments : int;
  target_free_segments : int;
  first_ino : int;
  ino_stride : int;
      (** mint inos [first_ino, first_ino+stride, …]: several volumes
          behind one server share the inode namespace disjointly *)
}

let default_config =
  {
    seg_blocks = 128; (* 512 KB segments with 4 KB blocks *)
    checkpoint_blocks = 256;
    cleaner = Cost_benefit;
    min_free_segments = 4;
    target_free_segments = 8;
    first_ino = 1;
    ino_stride = 1;
  }

let magic = "CAPLFS01"

(* What a block in the log is, as recorded in the segment summary. *)
type entry =
  | E_data of int * int (* ino, file block *)
  | E_inode of int
  | E_indirect of int

type seg_state = {
  mutable live : int; (* live blocks, excluding the summary *)
  mutable written_seq : int;
  mutable free : bool;
  mutable pending_free : bool;
      (* cleaned, but the durable checkpoint still references it: must
         not be reused until the next checkpoint commits *)
}

type t = {
  sched : Sched.t;
  driver : Driver.t;
  c_segment_sealed : Counter.t;
  c_free_segments : Counter.t;
  c_checkpoint : Counter.t;
  lname : string;
  cfg : config;
  block_bytes : int;
  spb : int; (* sectors per block *)
  total_blocks : int;
  nsegs : int;
  seg0 : int; (* first block of segment 0 *)
  ckpt_a : int;
  ckpt_b : int;
  (* volatile metadata *)
  imap : (int, int) Hashtbl.t; (* ino -> disk addr of inode block *)
  inodes : (int, Inode.t) Hashtbl.t; (* in-core inode table *)
  indirect_of : (int, int list) Hashtbl.t; (* ino -> indirect block addrs *)
  segs : seg_state array;
  mutable next_ino : int;
  mutable seq : int; (* next segment sequence number *)
  mutable ckpt_next_a : bool; (* which region the next checkpoint uses *)
  mutable ckpt_seq : int;
  (* open segment buffer *)
  mutable cur_seg : int;
  mutable cur_pos : int; (* next free offset in the segment, 1-based *)
  mutable cur_entries : entry list; (* reversed *)
  mutable cur_data : Data.t list; (* reversed *)
  pending : (int, Data.t) Hashtbl.t; (* disk addr -> buffered data *)
  dirty_inodes : (int, unit) Hashtbl.t;
  mutable cleaning : bool;
  (* checkpoint capture: while set, seals buffer their payloads in
     [deferred_seals] instead of writing, so capturing the in-core
     metadata never yields to other fibres *)
  mutable capturing : bool;
  mutable deferred_seals : (int * Data.t list * Data.t) list; (* reversed *)
  mutable inflight_seals : int; (* seal writes issued but not yet durable *)
  seal_done : Sched.event;
  (* adoption cursor: segment being filled with synthesized pre-existing
     blocks (simulator aid), -1 when none *)
  mutable adopt_seg : int;
  mutable adopt_pos : int;
  (* counters *)
  mutable sealed_segments : int;
  mutable cleanings : int;
  mutable blocks_cleaned : int;
  mutable log_blocks_written : int;
}

(* {2 Address arithmetic} *)

let seg_of_addr t addr = (addr - t.seg0) / t.cfg.seg_blocks
let seg_base t s = t.seg0 + (s * t.cfg.seg_blocks)

let free_segments t =
  Array.fold_left (fun n s -> if s.free then n + 1 else n) 0 t.segs

(* Free now, or free as soon as the next checkpoint commits. The
   cleaner budgets against this; only [find_free_segment] insists on
   strictly free segments. *)
let reclaimable_segments t =
  Array.fold_left
    (fun n s -> if s.free || s.pending_free then n + 1 else n)
    0 t.segs

(* {2 Raw block I/O} *)

let write_block_raw t ~addr data =
  Driver.write_exn t.driver ~lba:(addr * t.spb) data

let read_block_raw t ~addr =
  Driver.read_exn t.driver ~lba:(addr * t.spb) ~sectors:t.spb

(* Metadata is built in a writer the size of one block and handed to
   the log as whole zero-padded blocks: one buffer per block, no copy
   unless a structure outgrows its block. *)
let block_writer t = Codec.Writer.create ~capacity:t.block_bytes
let to_blocks t w = Data.Real (Codec.Writer.blocks w ~block_bytes:t.block_bytes)

(* A structure's Adler-32, appended after its body. *)
let seal_crc w = Codec.Writer.u32 w (Codec.Writer.crc w)

(* {2 Segment summaries} *)

let serialize_summary t entries =
  let w = block_writer t in
  Codec.Writer.string w "SUMM";
  Codec.Writer.u64 w t.seq;
  Codec.Writer.u32 w (List.length entries);
  List.iter
    (fun e ->
      match e with
      | E_data (ino, blk) ->
        Codec.Writer.u8 w 0;
        Codec.Writer.u64 w ino;
        Codec.Writer.u64 w blk
      | E_inode ino ->
        Codec.Writer.u8 w 1;
        Codec.Writer.u64 w ino;
        Codec.Writer.u64 w 0
      | E_indirect ino ->
        Codec.Writer.u8 w 2;
        Codec.Writer.u64 w ino;
        Codec.Writer.u64 w 0)
    entries;
  seal_crc w;
  to_blocks t w

(* A summary has an entry per block of its segment but its own. *)
let deserialize_summary ~seg_blocks s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> "SUMM" then raise (Codec.Corrupt "segment summary magic");
  let seq = Codec.Reader.u64 r in
  let count = Codec.Reader.count r ~max:(seg_blocks - 1) "summary entry" in
  let entries =
    List.init count (fun _ ->
        let tag = Codec.Reader.u8 r in
        let ino = Codec.Reader.u64 r in
        let blk = Codec.Reader.u64 r in
        match tag with
        | 0 -> E_data (ino, blk)
        | 1 -> E_inode ino
        | 2 -> E_indirect ino
        | n -> raise (Codec.Corrupt (Printf.sprintf "summary tag %d" n)))
  in
  (seq, entries)

(* {2 The log} *)

let open_segment t s =
  t.segs.(s).free <- false;
  t.cur_seg <- s;
  t.cur_pos <- 1;
  t.cur_entries <- [];
  t.cur_data <- []

let find_free_segment t =
  let rec go s = if s >= t.nsegs then None
    else if t.segs.(s).free then Some s
    else go (s + 1)
  in
  go 0

let serialize_checkpoint t =
  let w = block_writer t in
  Codec.Writer.string w "CKPT";
  Codec.Writer.u64 w t.seq;
  Codec.Writer.u64 w t.next_ino;
  Codec.Writer.f64 w (Sched.now t.sched);
  Codec.Writer.u32 w (Hashtbl.length t.imap);
  Hashtbl.iter
    (fun ino addr ->
      Codec.Writer.u64 w ino;
      Codec.Writer.u64 w addr)
    t.imap;
  Codec.Writer.u32 w t.nsegs;
  Array.iter
    (fun s ->
      Codec.Writer.u32 w s.live;
      Codec.Writer.u64 w s.written_seq;
      (* this checkpoint no longer references pending-free victims, so
         the image may already call them free; the in-core flag only
         flips once the image is durable *)
      Codec.Writer.u8 w (if s.free || s.pending_free then 1 else 0))
    t.segs;
  (* indirect lists, so liveness checks survive a remount *)
  Codec.Writer.u32 w (Hashtbl.length t.indirect_of);
  Hashtbl.iter
    (fun ino addrs ->
      Codec.Writer.u64 w ino;
      Codec.Writer.u32 w (List.length addrs);
      List.iter (fun a -> Codec.Writer.u64 w a) addrs)
    t.indirect_of;
  seal_crc w;
  w

(* Forward declaration for the seal -> clean -> append cycle. *)
let rec seal_segment t =
  if t.cur_pos > 1 then begin
    let seg = t.cur_seg in
    let entries = List.rev t.cur_entries in
    let blocks = List.rev t.cur_data in
    let summary = serialize_summary t entries in
    (* a scatter-gather payload: the buffered blocks travel to the
       driver by reference — no flattening copy at seal time *)
    let payload = Data.gather (summary :: blocks) in
    t.segs.(seg).written_seq <- t.seq;
    t.seq <- t.seq + 1;
    t.sealed_segments <- t.sealed_segments + 1;
    t.log_blocks_written <- t.log_blocks_written + List.length blocks + 1;
    Counter.record t.c_segment_sealed (float_of_int (List.length blocks));
    (let tr = Sched.tracer t.sched in
     if Tracer.enabled tr then
       Tracer.emit tr ~time:(Sched.now t.sched)
         (Ev.Seg_write { volume = t.lname; seg; blocks = List.length blocks }));
    (* Open the successor before the write below can yield: an append
       racing the seal I/O must land in a fresh buffer, not in the
       sealed one where it would silently vanish. *)
    let next =
      match find_free_segment t with
      | Some s -> s
      | None -> raise (Errno.Error Errno.ENOSPC)
    in
    open_segment t next;
    if t.capturing then
      (* a checkpoint capture is in flight: stay yield-free and let
         [checkpoint] issue the write once the capture is complete *)
      t.deferred_seals <- (seg, blocks, payload) :: t.deferred_seals
    else begin
      t.inflight_seals <- t.inflight_seals + 1;
      Fun.protect
        ~finally:(fun () ->
          t.inflight_seals <- t.inflight_seals - 1;
          Sched.broadcast t.sched t.seal_done)
        (fun () -> write_block_raw t ~addr:(seg_base t seg) payload);
      (* buffered blocks are now on disk: drop them from the read path *)
      List.iteri
        (fun i _ -> Hashtbl.remove t.pending (seg_base t seg + 1 + i))
        blocks;
      maybe_clean t
    end
  end

and append_block t entry data =
  (* Re-check after sealing: the seal may have run the cleaner, which
     appends live blocks into the freshly opened segment. *)
  while t.cur_pos >= t.cfg.seg_blocks do
    seal_segment t
  done;
  let addr = seg_base t t.cur_seg + t.cur_pos in
  t.cur_entries <- entry :: t.cur_entries;
  t.cur_data <- data :: t.cur_data;
  Hashtbl.replace t.pending addr data;
  t.segs.(t.cur_seg).live <- t.segs.(t.cur_seg).live + 1;
  t.cur_pos <- t.cur_pos + 1;
  addr

and kill_addr t addr =
  if addr >= t.seg0 then begin
    let s = seg_of_addr t addr in
    if s >= 0 && s < t.nsegs then begin
      t.segs.(s).live <- Stdlib.max 0 (t.segs.(s).live - 1);
      Hashtbl.remove t.pending addr
    end
  end

(* Serialize an inode into the log: spilled indirect blocks first, then
   the inode block itself; the inode map is pointed at the new copy. *)
and log_inode t (inode : Inode.t) =
  (match Hashtbl.find_opt t.imap inode.Inode.ino with
  | Some old -> kill_addr t old
  | None -> ());
  (match Hashtbl.find_opt t.indirect_of inode.Inode.ino with
  | Some olds -> List.iter (kill_addr t) olds
  | None -> ());
  let per = Inode.addrs_per_indirect ~block_bytes:t.block_bytes in
  let spill = Stdlib.max 0 (inode.Inode.nblocks - Inode.ndirect) in
  let n_ind = (spill + per - 1) / per in
  (* A full indirect block holds a 4-byte count and [per] addresses:
     4 bytes more than a block, so it pads to two blocks in one log
     slot and shifts the segment's later blocks. A known defect
     (ROADMAP); fixing it changes the replay digests perfbench
     records. *)
  let indirect =
    List.init n_ind (fun k ->
        let w = block_writer t in
        let base = Inode.ndirect + (k * per) in
        let count = Stdlib.min per (inode.Inode.nblocks - base) in
        Codec.Writer.u32 w count;
        for i = base to base + count - 1 do
          Codec.Writer.u64 w (Inode.get_addr inode i + 1)
        done;
        append_block t (E_indirect inode.Inode.ino) (to_blocks t w))
  in
  let w = block_writer t in
  Inode.serialize w inode ~indirect;
  if Codec.Writer.length w > t.block_bytes then
    raise (Codec.Corrupt "inode larger than a block");
  let addr = append_block t (E_inode inode.Inode.ino) (to_blocks t w) in
  Hashtbl.replace t.imap inode.Inode.ino addr;
  Hashtbl.replace t.indirect_of inode.Inode.ino indirect

and flush_dirty_inodes t =
  let inos = Hashtbl.fold (fun ino () acc -> ino :: acc) t.dirty_inodes [] in
  let inos = List.sort compare inos in
  List.iter
    (fun ino ->
      Hashtbl.remove t.dirty_inodes ino;
      match Hashtbl.find_opt t.inodes ino with
      | Some inode -> log_inode t inode
      | None -> ())
    inos

(* {2 Cleaning} *)

and pick_victim t =
  let now_seq = t.seq in
  let best = ref None in
  let better score s =
    match !best with
    | Some (bs, _) when bs >= score -> ()
    | Some _ | None -> best := Some (score, s)
  in
  Array.iteri
    (fun s st ->
      if (not st.free) && (not st.pending_free) && s <> t.cur_seg then begin
        let cap = float_of_int (t.cfg.seg_blocks - 1) in
        let u = float_of_int st.live /. cap in
        if u < 1.0 then begin
          match t.cfg.cleaner with
          | Greedy -> better (1.0 -. u) s
          | Cost_benefit ->
            let age = float_of_int (now_seq - st.written_seq) in
            better ((1.0 -. u) *. (age +. 1.0) /. (1.0 +. u)) s
        end
      end)
    t.segs;
  Option.map snd !best

and entry_is_live t ~addr = function
  | E_data (ino, blk) -> (
    match Hashtbl.find_opt t.inodes ino with
    | Some inode -> Inode.get_addr inode blk = addr
    | None -> (
      (* not in core: resolve through the on-disk inode *)
      match load_inode t ino with
      | Some inode -> Inode.get_addr inode blk = addr
      | None -> false))
  | E_inode ino -> Hashtbl.find_opt t.imap ino = Some addr
  | E_indirect ino -> (
    match Hashtbl.find_opt t.indirect_of ino with
    | Some addrs -> List.mem addr addrs
    | None -> false)

and clean_segment t victim =
  t.cleanings <- t.cleanings + 1;
  let base = seg_base t victim in
  (* One sequential read of the whole segment. *)
  let seg_data =
    Driver.read_exn t.driver ~lba:(base * t.spb)
      ~sectors:(t.cfg.seg_blocks * t.spb)
  in
  let block_at i =
    Data.sub seg_data ~pos:(i * t.block_bytes) ~len:t.block_bytes
  in
  let summary_str = Data.to_string (block_at 0) in
  let entries =
    try snd (deserialize_summary ~seg_blocks:t.cfg.seg_blocks summary_str) with
    | Codec.Corrupt _ when not (Data.is_real seg_data) ->
      (* Simulated disk without backing store: reconstruct liveness from
         in-core metadata instead of the unreadable summary. *)
      []
  in
  let reappend_inodes = Hashtbl.create 8 in
  List.iteri
    (fun i e ->
      let addr = base + 1 + i in
      if entry_is_live t ~addr e then begin
        t.blocks_cleaned <- t.blocks_cleaned + 1;
        match e with
        | E_data (ino, blk) -> (
          match Hashtbl.find_opt t.inodes ino with
          | Some inode ->
            kill_addr t addr;
            let new_addr =
              append_block t (E_data (ino, blk)) (block_at (1 + i))
            in
            Inode.set_addr inode blk new_addr;
            Hashtbl.replace reappend_inodes ino ()
          | None -> ())
        | E_inode ino | E_indirect ino ->
          Hashtbl.replace reappend_inodes ino ()
      end)
    entries;
  (* Relocating an inode also relocates its indirect blocks, killing any
     still in the victim. *)
  Hashtbl.iter
    (fun ino () ->
      match Hashtbl.find_opt t.inodes ino with
      | Some inode -> log_inode t inode
      | None -> (
        match load_inode t ino with
        | Some inode -> log_inode t inode
        | None -> ()))
    reappend_inodes;
  t.segs.(victim).live <- 0;
  (* The durable checkpoint still points into the victim; reusing it
     before the next checkpoint commits would let a crash resurrect a
     checkpoint whose blocks have been overwritten. Park it until then. *)
  t.segs.(victim).pending_free <- true

and maybe_clean t =
  if
    (not t.cleaning) && (not t.capturing)
    && reclaimable_segments t < t.cfg.min_free_segments
  then begin
    t.cleaning <- true;
    let budget = ref (2 * t.nsegs) in
    (try
       while reclaimable_segments t < t.cfg.target_free_segments && !budget > 0 do
         decr budget;
         match pick_victim t with
         | Some v -> clean_segment t v
         | None -> budget := 0
       done;
       (* cleaned segments only become reusable once a checkpoint that
          no longer references them is durable *)
       if Array.exists (fun s -> s.pending_free) t.segs then checkpoint t
     with e ->
       t.cleaning <- false;
       raise e);
    t.cleaning <- false;
    Counter.record t.c_free_segments (float_of_int (free_segments t))
  end

(* {2 Checkpoints (write path)} *)

and checkpoint t =
  (* Phase 1 — capture. The capture must be atomic with respect to
     other fibres: sealing normally awaits disk I/O, and an inode
     mutated during that await (e.g. a directory mid
     truncate-and-rewrite) would be serialized half-updated into the
     checkpoint image. With [capturing] set, seals buffer their
     payloads instead of writing, so this whole block runs without
     yielding. *)
  t.capturing <- true;
  let seals, w =
    Fun.protect
      ~finally:(fun () -> t.capturing <- false)
      (fun () ->
        flush_dirty_inodes t;
        seal_segment t;
        let seals = List.rev t.deferred_seals in
        t.deferred_seals <- [];
        (seals, serialize_checkpoint t))
  in
  let max_bytes = t.cfg.checkpoint_blocks * t.block_bytes in
  if Codec.Writer.length w > max_bytes then
    raise
      (Codec.Corrupt
         "checkpoint exceeds its region; reformat with a larger checkpoint_blocks");
  let region = if t.ckpt_next_a then t.ckpt_a else t.ckpt_b in
  t.ckpt_next_a <- not t.ckpt_next_a;
  let seq = t.seq in
  (* Phase 2 — write. Captured segments go out first, then any seal
     still in flight from another fibre must land (the image points
     into it), and only then the region that makes the image current. *)
  List.iter
    (fun (seg, blocks, payload) ->
      write_block_raw t ~addr:(seg_base t seg) payload;
      List.iteri
        (fun i _ -> Hashtbl.remove t.pending (seg_base t seg + 1 + i))
        blocks)
    seals;
  while t.inflight_seals > 0 do
    Sched.await t.sched t.seal_done
  done;
  write_block_raw t ~addr:region (to_blocks t w);
  t.ckpt_seq <- seq;
  (* the image calling parked victims free is durable: reuse is safe *)
  Array.iter
    (fun s ->
      if s.pending_free then begin
        s.pending_free <- false;
        s.free <- true
      end)
    t.segs;
  Counter.record t.c_checkpoint 1.

(* {2 Inode loading} *)

and load_inode t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some inode -> Some inode
  | None -> (
    match Hashtbl.find_opt t.imap ino with
    | None -> None
    | Some addr ->
      let data =
        match Hashtbl.find_opt t.pending addr with
        | Some d -> d
        | None -> read_block_raw t ~addr
      in
      if not (Data.is_real data) then
        raise
          (Codec.Corrupt
             "LFS: cannot load inode from a simulated disk without backing")
      else begin
        let block_bytes = t.block_bytes in
        let inode, indirect =
          Inode.deserialize ~block_bytes (Data.to_string data)
        in
        List.iteri
          (fun k ind_addr ->
            let ind_data =
              match Hashtbl.find_opt t.pending ind_addr with
              | Some d -> d
              | None -> read_block_raw t ~addr:ind_addr
            in
            Inode.load_indirect inode ~block_bytes ~k
              (Data.to_string ind_data))
          indirect;
        Hashtbl.replace t.inodes ino inode;
        Hashtbl.replace t.indirect_of ino indirect;
        Some inode
      end)

(* {2 Checkpoints} *)

(* The counts are bounded by the volume: [nsegs] is the superblock's,
   and every mapped inode and indirect block takes a log slot of its
   own, a block of a segment other than its summary. *)
let parse_checkpoint ~nsegs ~seg_blocks ~block_bytes s =
  let crc_pos = String.length s - 4 in
  if crc_pos <= 0 then raise (Codec.Corrupt "checkpoint too small");
  (* the region is padded with zeroes; find the actual body length by
     parsing, then verify the crc over exactly the body *)
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> "CKPT" then raise (Codec.Corrupt "checkpoint magic");
  let log_slots = nsegs * (seg_blocks - 1) in
  let seq = Codec.Reader.u64 r in
  let next_ino = Codec.Reader.u64 r in
  let _ts = Codec.Reader.f64 r in
  let n_imap = Codec.Reader.count r ~max:log_slots "inode map entry" in
  let imap = List.init n_imap (fun _ ->
      let ino = Codec.Reader.u64 r in
      let addr = Codec.Reader.u64 r in
      (ino, addr))
  in
  let stored_nsegs = Codec.Reader.u32 r in
  if stored_nsegs <> nsegs then
    raise
      (Codec.Corrupt
         (Printf.sprintf "checkpoint of %d segments on a volume of %d"
            stored_nsegs nsegs));
  let segs = List.init nsegs (fun _ ->
      let live = Codec.Reader.u32 r in
      let wseq = Codec.Reader.u64 r in
      let free = Codec.Reader.u8 r = 1 in
      { live; written_seq = wseq; free; pending_free = false })
  in
  let n_ind = Codec.Reader.count r ~max:log_slots "indirect list" in
  let indirects = List.init n_ind (fun _ ->
      let ino = Codec.Reader.u64 r in
      let n =
        Codec.Reader.count r
          ~max:(Inode.max_indirect ~block_bytes)
          "indirect block"
      in
      (ino, List.init n (fun _ -> Codec.Reader.u64 r)))
  in
  (* crc sits immediately after the body we just read *)
  let body_len =
    (* Reader consumed exactly the body *)
    String.length s - Codec.Reader.remaining r
  in
  let stored_crc =
    let r2 = Codec.Reader.of_string (String.sub s body_len 4) in
    Codec.Reader.u32 r2
  in
  if Codec.crc (String.sub s 0 body_len) <> stored_crc then
    raise (Codec.Corrupt "checkpoint crc");
  (seq, next_ino, imap, segs, indirects)

(* {2 Superblock} *)

let serialize_superblock t =
  let w = block_writer t in
  Codec.Writer.string w magic;
  Codec.Writer.u32 w t.block_bytes;
  Codec.Writer.u64 w t.total_blocks;
  Codec.Writer.u32 w t.cfg.seg_blocks;
  Codec.Writer.u32 w t.nsegs;
  Codec.Writer.u64 w t.seg0;
  Codec.Writer.u64 w t.ckpt_a;
  Codec.Writer.u64 w t.ckpt_b;
  Codec.Writer.u32 w t.cfg.checkpoint_blocks;
  seal_crc w;
  to_blocks t w

(* The geometry must be the one [derive_geometry] lays out, on a disk
   at least [total_blocks] long: [make_t] sizes the segment table by
   [nsegs], and the checkpoint reads trust the region bounds. *)
let parse_superblock ~sector_bytes ~disk_bytes s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> magic then raise (Codec.Corrupt "superblock magic");
  let block_bytes = Codec.Reader.u32 r in
  let total_blocks = Codec.Reader.u64 r in
  let seg_blocks = Codec.Reader.u32 r in
  let nsegs = Codec.Reader.u32 r in
  let seg0 = Codec.Reader.u64 r in
  let ckpt_a = Codec.Reader.u64 r in
  let ckpt_b = Codec.Reader.u64 r in
  let checkpoint_blocks = Codec.Reader.u32 r in
  let laid_out =
    block_bytes >= sector_bytes
    && block_bytes mod sector_bytes = 0
    && total_blocks <= disk_bytes / block_bytes
    && seg_blocks >= 2 && checkpoint_blocks >= 1
    && ckpt_a = 1
    && ckpt_b = ckpt_a + checkpoint_blocks
    && seg0 = ckpt_b + checkpoint_blocks
    && seg0 <= total_blocks
    && nsegs = (total_blocks - seg0) / seg_blocks
  in
  if not laid_out then raise (Codec.Corrupt "superblock geometry");
  (block_bytes, total_blocks, seg_blocks, nsegs, seg0, ckpt_a, ckpt_b,
   checkpoint_blocks)

(* {2 Geometry derivation} *)

(* The superblock, two checkpoint regions, and segments enough for the
   cleaner's free target plus two. *)
let min_blocks cfg =
  1 + (2 * cfg.checkpoint_blocks)
  + ((cfg.target_free_segments + 2) * cfg.seg_blocks)

let derive_geometry ~cfg ~total_blocks =
  if total_blocks < min_blocks cfg then
    invalid_arg "Lfs: disk too small for this configuration";
  let ckpt_a = 1 in
  let ckpt_b = ckpt_a + cfg.checkpoint_blocks in
  let seg0 = ckpt_b + cfg.checkpoint_blocks in
  let nsegs = (total_blocks - seg0) / cfg.seg_blocks in
  (ckpt_a, ckpt_b, seg0, nsegs)

(* {2 Public API} *)

let stat_names = [ "segment_sealed"; "free_segments"; "checkpoint" ]

let make_t ?registry ?(name = "lfs") ~cfg sched driver ~block_bytes
    ~total_blocks ~ckpt_a ~ckpt_b ~seg0 ~nsegs () =
  let c_segment_sealed, c_free_segments, c_checkpoint =
    match registry with
    | Some r ->
      List.iter
        (fun s -> Stats.Registry.register r (Stats.Stat.scalar (name ^ "." ^ s)))
        stat_names;
      let c s = Stats.Registry.counter r (name ^ "." ^ s) in
      (c "segment_sealed", c "free_segments", c "checkpoint")
    | None -> Counter.(null, null, null)
  in
  let spb = block_bytes / Driver.sector_bytes driver in
  if spb < 1 || block_bytes mod Driver.sector_bytes driver <> 0 then
    invalid_arg "Lfs: block size must be a multiple of the sector size";
  {
    sched;
    driver;
    c_segment_sealed;
    c_free_segments;
    c_checkpoint;
    lname = name;
    cfg;
    block_bytes;
    spb;
    total_blocks;
    nsegs;
    seg0;
    ckpt_a;
    ckpt_b;
    imap = Hashtbl.create 1024;
    inodes = Hashtbl.create 1024;
    indirect_of = Hashtbl.create 64;
    segs =
      Array.init nsegs (fun _ ->
          { live = 0; written_seq = 0; free = true; pending_free = false });
    next_ino = cfg.first_ino;
    seq = 1;
    ckpt_next_a = true;
    ckpt_seq = 0;
    cur_seg = 0;
    cur_pos = 1;
    cur_entries = [];
    cur_data = [];
    pending = Hashtbl.create 256;
    dirty_inodes = Hashtbl.create 64;
    cleaning = false;
    capturing = false;
    deferred_seals = [];
    inflight_seals = 0;
    seal_done = Sched.new_event ~name:(name ^ ".seal_done") sched;
    adopt_seg = -1;
    adopt_pos = 1;
    sealed_segments = 0;
    cleanings = 0;
    blocks_cleaned = 0;
    log_blocks_written = 0;
  }

let total_blocks_of driver ~block_bytes =
  Driver.total_sectors driver * Driver.sector_bytes driver / block_bytes

(* Build the Layout.t interface over an initialised t. *)
let to_layout t =
  let now () = Sched.now t.sched in
  let get_inode ino = load_inode t ino in
  let alloc_inode ~kind =
    let ino = t.next_ino in
    t.next_ino <- ino + t.cfg.ino_stride;
    let inode = Inode.make ~ino ~kind ~now:(now ()) in
    Hashtbl.replace t.inodes ino inode;
    Hashtbl.replace t.dirty_inodes ino ();
    inode
  in
  let update_inode (inode : Inode.t) =
    Hashtbl.replace t.inodes inode.Inode.ino inode;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let free_inode ino =
    (match load_inode t ino with
    | Some inode ->
      List.iter (fun (_, addr) -> kill_addr t addr) (Inode.mapped inode)
    | None -> ());
    (match Hashtbl.find_opt t.imap ino with
    | Some addr -> kill_addr t addr
    | None -> ());
    (match Hashtbl.find_opt t.indirect_of ino with
    | Some addrs -> List.iter (kill_addr t) addrs
    | None -> ());
    Hashtbl.remove t.imap ino;
    Hashtbl.remove t.inodes ino;
    Hashtbl.remove t.indirect_of ino;
    Hashtbl.remove t.dirty_inodes ino
  in
  let read_block (inode : Inode.t) blk =
    match Inode.get_addr inode blk with
    | a when a = Inode.addr_none -> Data.sim t.block_bytes (* hole *)
    | addr -> (
      match Hashtbl.find_opt t.pending addr with
      | Some d -> d
      | None -> read_block_raw t ~addr)
  in
  let write_blocks updates =
    (* Append data blocks, then the affected inodes, so a summary-driven
       roll-forward sees inodes after their data. *)
    let touched = Hashtbl.create 8 in
    List.iter
      (fun (ino, blk, data) ->
        match load_inode t ino with
        | None -> Log.warn (fun m -> m "write_blocks: unknown ino %d" ino)
        | Some inode ->
          (match Inode.get_addr inode blk with
          | a when a = Inode.addr_none -> ()
          | old -> kill_addr t old);
          let addr = append_block t (E_data (ino, blk)) data in
          Inode.set_addr inode blk addr;
          Hashtbl.replace touched ino ())
      updates;
    Hashtbl.iter
      (fun ino () ->
        match Hashtbl.find_opt t.inodes ino with
        | Some inode -> log_inode t inode
        | None -> ())
      touched
  in
  let truncate (inode : Inode.t) ~blocks =
    let dropped = Inode.truncate_blocks inode ~blocks in
    List.iter (kill_addr t) dropped;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let adopt (inode : Inode.t) ~blocks =
    let next_slot () =
      if t.adopt_seg < 0 || t.adopt_pos >= t.cfg.seg_blocks then begin
        match find_free_segment t with
        | Some s when s <> t.cur_seg ->
          t.segs.(s).free <- false;
          t.segs.(s).written_seq <- 0;
          t.adopt_seg <- s;
          t.adopt_pos <- 1
        | Some _ | None -> raise (Errno.Error Errno.ENOSPC)
      end;
      let addr = seg_base t t.adopt_seg + t.adopt_pos in
      t.adopt_pos <- t.adopt_pos + 1;
      t.segs.(t.adopt_seg).live <- t.segs.(t.adopt_seg).live + 1;
      addr
    in
    for i = 0 to blocks - 1 do
      if Inode.get_addr inode i = Inode.addr_none then
        Inode.set_addr inode i (next_slot ())
    done;
    Hashtbl.replace t.inodes inode.Inode.ino inode;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let layout_stats () =
    [
      ("free_segments", float_of_int (free_segments t));
      ("sealed_segments", float_of_int t.sealed_segments);
      ("cleanings", float_of_int t.cleanings);
      ("blocks_cleaned", float_of_int t.blocks_cleaned);
      ("log_blocks_written", float_of_int t.log_blocks_written);
      ("inodes", float_of_int (Hashtbl.length t.inodes));
    ]
  in
  (* exceptions stop here: internals raise [Errno.Error], the public
     record reports typed results *)
  {
    Layout.l_name = t.lname;
    block_bytes = t.block_bytes;
    total_blocks = t.total_blocks;
    alloc_inode = (fun ~kind -> Errno.catch (fun () -> alloc_inode ~kind));
    get_inode = (fun ino -> Errno.catch (fun () -> get_inode ino));
    update_inode;
    free_inode = (fun ino -> Errno.catch (fun () -> free_inode ino));
    read_block =
      (fun inode blk -> Errno.catch (fun () -> read_block inode blk));
    write_blocks = (fun ups -> Errno.catch (fun () -> write_blocks ups));
    truncate =
      (fun inode ~blocks -> Errno.catch (fun () -> truncate inode ~blocks));
    adopt =
      (fun inode ~blocks -> Errno.catch (fun () -> adopt inode ~blocks));
    sync = (fun () -> Errno.catch (fun () -> checkpoint t));
    free_blocks =
      (fun () -> free_segments t * (t.cfg.seg_blocks - 1));
    layout_stats;
  }

let read_region t ~addr ~blocks =
  Driver.read_exn t.driver ~lba:(addr * t.spb) ~sectors:(blocks * t.spb)

let roll_forward t =
  (* Segments whose summaries carry a sequence newer than the checkpoint
     hold updates the checkpoint missed: re-apply their inode-map
     entries in sequence order. *)
  let newer = ref [] in
  for s = 0 to t.nsegs - 1 do
    let base = seg_base t s in
    match
      (try Some (deserialize_summary ~seg_blocks:t.cfg.seg_blocks
                   (Data.to_string (read_block_raw t ~addr:base)))
       with Codec.Corrupt _ -> None)
    with
    | Some (seq, entries) when seq > t.ckpt_seq ->
      newer := (seq, s, entries) :: !newer
    | Some _ | None -> ()
  done;
  let newer = List.sort compare !newer in
  List.iter
    (fun (seq, s, entries) ->
      t.segs.(s).free <- false;
      t.segs.(s).written_seq <- seq;
      if seq >= t.seq then t.seq <- seq + 1;
      List.iteri
        (fun i e ->
          let addr = seg_base t s + 1 + i in
          match e with
          | E_inode ino ->
            Hashtbl.replace t.imap ino addr;
            while t.next_ino <= ino do
              t.next_ino <- t.next_ino + t.cfg.ino_stride
            done
          | E_data _ | E_indirect _ -> ())
        entries)
    newer;
  if newer <> [] then begin
    Log.info (fun m -> m "%s: rolled forward %d segments" t.lname
                 (List.length newer));
    (* usage table is stale: recompute liveness from the inode map *)
    Array.iter (fun s -> if not s.free then s.live <- 0) t.segs;
    Hashtbl.iter
      (fun ino addr ->
        let bump a =
          if a >= t.seg0 then begin
            let s = seg_of_addr t a in
            if s >= 0 && s < t.nsegs then
              t.segs.(s).live <- t.segs.(s).live + 1
          end
        in
        bump addr;
        match load_inode t ino with
        | Some inode ->
          List.iter (fun (_, a) -> bump a) (Inode.mapped inode);
          (match Hashtbl.find_opt t.indirect_of ino with
          | Some addrs -> List.iter bump addrs
          | None -> ())
        | None -> ())
      t.imap
  end;
  List.length newer

let mount_t ?registry ?(name = "lfs") ?(config = default_config) sched driver =
  (* geometry comes from the superblock; config only tunes policies *)
  let sector = Driver.sector_bytes driver in
  let sb_data = Driver.read_exn driver ~lba:0 ~sectors:(4096 / sector) in
  if not (Data.is_real sb_data) then
    raise (Codec.Corrupt "Lfs.mount: simulated disk holds no metadata; use format_and_mount");
  let ( block_bytes, total_blocks, seg_blocks, nsegs, seg0, ckpt_a, ckpt_b,
        checkpoint_blocks ) =
    parse_superblock ~sector_bytes:sector
      ~disk_bytes:(Driver.total_sectors driver * sector)
      (Data.to_string sb_data)
  in
  let cfg = { config with seg_blocks; checkpoint_blocks } in
  let t =
    make_t ?registry ~name ~cfg sched driver ~block_bytes ~total_blocks
      ~ckpt_a ~ckpt_b ~seg0 ~nsegs ()
  in
  let try_region addr =
    try
      Some
        (parse_checkpoint ~nsegs ~seg_blocks ~block_bytes
           (Data.to_string
              (read_region t ~addr ~blocks:cfg.checkpoint_blocks)))
    with Codec.Corrupt _ -> None
  in
  let chosen =
    match (try_region ckpt_a, try_region ckpt_b) with
    | Some ((sa, _, _, _, _) as a), Some ((sb, _, _, _, _) as b) ->
      if sa >= sb then Some (a, true) else Some (b, false)
    | Some a, None -> Some (a, true)
    | None, Some b -> Some (b, false)
    | None, None -> None
  in
  (match chosen with
  | None -> raise (Codec.Corrupt "no valid checkpoint")
  | Some ((seq, next_ino, imap, segs, indirects), was_a) ->
    t.seq <- seq;
    t.ckpt_seq <- seq;
    t.next_ino <- next_ino;
    List.iter (fun (ino, addr) -> Hashtbl.replace t.imap ino addr) imap;
    List.iteri
      (fun i s -> if i < t.nsegs then begin
          t.segs.(i).live <- s.live;
          t.segs.(i).written_seq <- s.written_seq;
          t.segs.(i).free <- s.free
        end)
      segs;
    List.iter
      (fun (ino, addrs) -> Hashtbl.replace t.indirect_of ino addrs)
      indirects;
    (* next checkpoint goes to the other region *)
    t.ckpt_next_a <- not was_a);
  let rolled = roll_forward t in
  (match find_free_segment t with
  | Some s -> open_segment t s
  | None -> raise (Errno.Error Errno.ENOSPC));
  (t, rolled)

let mount ?registry ?name ?config sched driver =
  to_layout (fst (mount_t ?registry ?name ?config sched driver))

(* {2 Crash recovery} *)

type recovery_report = {
  r_checkpoint_seq : int;
  r_rolled_segments : int;
  r_recovered_inodes : int;
  r_fsck_errors : string list;
}

(* Structural consistency sweep over the recovered state: every
   inode-map entry must deserialize into an inode whose block addresses
   fall inside the volume. Free-segment membership is deliberately not
   checked: blocks adopted after the last checkpoint legitimately live
   in segments the checkpoint believed free. *)
let fsck t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let check_addr what ino a =
    if a <> Inode.addr_none && (a < 0 || a >= t.total_blocks) then
      err "ino %d: %s address %d outside volume [0,%d)" ino what a
        t.total_blocks
  in
  Hashtbl.iter
    (fun ino addr ->
      check_addr "inode-map" ino addr;
      match load_inode t ino with
      | None -> err "ino %d: in inode map at %d but unloadable" ino addr
      | Some inode ->
        if inode.Inode.ino <> ino then
          err "ino %d: inode block at %d claims ino %d" ino addr
            inode.Inode.ino;
        if inode.Inode.size < 0 then
          err "ino %d: negative size %d" ino inode.Inode.size;
        List.iter (fun (_, a) -> check_addr "block" ino a)
          (Inode.mapped inode)
      | exception Codec.Corrupt m ->
        err "ino %d: corrupt inode block at %d: %s" ino addr m
      | exception Errno.Error e ->
        err "ino %d: I/O error loading inode at %d: %s" ino addr
          (Errno.to_string e))
    t.imap;
  List.rev !errors

let recover ?registry ?name ?config sched driver =
  match mount_t ?registry ?name ?config sched driver with
  | t, rolled ->
    let report =
      {
        r_checkpoint_seq = t.ckpt_seq;
        r_rolled_segments = rolled;
        r_recovered_inodes = Hashtbl.length t.imap;
        r_fsck_errors = fsck t;
      }
    in
    (let tr = Sched.tracer t.sched in
     if Tracer.enabled tr then
       Tracer.emit tr ~time:(Sched.now t.sched)
         (Ev.Recovery
            {
              volume = t.lname;
              segments = rolled;
              inodes = report.r_recovered_inodes;
            }));
    Log.info (fun m ->
        m "%s: recovered at seq %d: %d segments rolled, %d inodes, %d fsck \
           errors"
          t.lname report.r_checkpoint_seq rolled report.r_recovered_inodes
          (List.length report.r_fsck_errors));
    Ok (to_layout t, report)
  | exception Errno.Error e -> Error e
  | exception Codec.Corrupt _ -> Error Errno.EIO

let format_and_mount ?registry ?(name = "lfs") ?(config = default_config)
    sched driver ~block_bytes =
  let total_blocks = total_blocks_of driver ~block_bytes in
  let ckpt_a, ckpt_b, seg0, nsegs =
    derive_geometry ~cfg:config ~total_blocks
  in
  let t =
    make_t ?registry ~name ~cfg:config sched driver ~block_bytes ~total_blocks
      ~ckpt_a ~ckpt_b ~seg0 ~nsegs ()
  in
  write_block_raw t ~addr:0 (serialize_superblock t);
  open_segment t 0;
  checkpoint t;
  to_layout t
