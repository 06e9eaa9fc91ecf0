module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Errno = Capfs_core.Errno

type config = { journal_blocks : int }

let default_config = { journal_blocks = 64 }

let magic = "CAPJFS01"

type t = {
  sched : Sched.t;
  driver : Driver.t;
  c_commits : Capfs_stats.Counter.t;
  lname : string;
  cfg : config;
  block_bytes : int;
  spb : int;
  total_blocks : int;
  data0 : int; (* first data block *)
  (* volatile metadata *)
  inodes : (int, Inode.t) Hashtbl.t;
  bitmap : Bytes.t; (* bit per data-region block *)
  mutable next_ino : int;
  mutable seq : int; (* commit sequence *)
  mutable journal_head : int; (* next journal block to write *)
  dirty_inodes : (int, unit) Hashtbl.t;
  mutable deleted : int list; (* inos deleted since last commit *)
  mutable rotor : int;
  mutable commits : int;
  mutable compactions : int;
  mutable data_writes : int;
}

let ignore_sched t = ignore t.sched

(* {2 Bitmap over the data region} *)

let data_blocks t = t.total_blocks - t.data0
let bit_get b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set b i v =
  let cur = Char.code (Bytes.get b (i / 8)) in
  let m = 1 lsl (i mod 8) in
  Bytes.set b (i / 8) (Char.chr (if v then cur lor m else cur land lnot m))

let alloc_block t =
  let n = data_blocks t in
  let rec probe i =
    if i >= n then raise (Errno.Error Errno.ENOSPC)
    else begin
      let j = (t.rotor + i) mod n in
      if not (bit_get t.bitmap j) then begin
        bit_set t.bitmap j true;
        t.rotor <- (j + 1) mod n;
        t.data0 + j
      end
      else probe (i + 1)
    end
  in
  probe 0

let free_block t addr =
  let j = addr - t.data0 in
  if j >= 0 && j < data_blocks t then bit_set t.bitmap j false

(* {2 Raw I/O} *)

let write_block_raw t ~addr data =
  Driver.write_exn t.driver ~lba:(addr * t.spb) data
let read_block_raw t ~addr =
  Driver.read_exn t.driver ~lba:(addr * t.spb) ~sectors:t.spb

let pad_to_blocks t s =
  let n = ((String.length s + t.block_bytes - 1) / t.block_bytes) * t.block_bytes in
  let b = Bytes.make (Stdlib.max t.block_bytes n) '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  Data.Real b

(* {2 Journal records}

   A record is [magic; seq; kind; body; crc], padded to whole blocks.
   kind 0 = incremental commit (dirty inodes + deletions + next_ino),
   kind 1 = checkpoint (every live inode + next_ino). Inodes carry
   their complete block maps inline: journal records are variable
   length, so no indirect blocks are needed. *)

let put_inode w (i : Inode.t) =
  Codec.Writer.u64 w i.Inode.ino;
  Codec.Writer.u8 w (Inode.kind_to_int i.Inode.kind);
  Codec.Writer.u64 w i.Inode.size;
  Codec.Writer.u32 w i.Inode.nlink;
  Codec.Writer.f64 w i.Inode.mtime;
  Codec.Writer.u32 w i.Inode.nblocks;
  for k = 0 to i.Inode.nblocks - 1 do
    Codec.Writer.u64 w (Inode.get_addr i k + 1)
  done

let get_inode r =
  let ino = Codec.Reader.u64 r in
  let kind = Inode.kind_of_int (Codec.Reader.u8 r) in
  let size = Codec.Reader.u64 r in
  let nlink = Codec.Reader.u32 r in
  let mtime = Codec.Reader.f64 r in
  let nblocks = Codec.Reader.u32 r in
  let i = Inode.make ~ino ~kind ~now:mtime in
  i.Inode.size <- size;
  i.Inode.nlink <- nlink;
  i.Inode.mtime <- mtime;
  for k = 0 to nblocks - 1 do
    Inode.set_addr i k (Codec.Reader.u64 r - 1)
  done;
  i

let serialize_record t ~kind ~inodes ~deleted =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "JREC";
  Codec.Writer.u64 w t.seq;
  Codec.Writer.u8 w kind;
  Codec.Writer.u64 w t.next_ino;
  Codec.Writer.u32 w (List.length inodes);
  List.iter (put_inode w) inodes;
  Codec.Writer.u32 w (List.length deleted);
  List.iter (fun ino -> Codec.Writer.u64 w ino) deleted;
  let body = Codec.Writer.contents w in
  let w2 = Codec.Writer.create () in
  Codec.Writer.u32 w2 (Codec.crc body);
  body ^ Codec.Writer.contents w2

let parse_record s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> "JREC" then raise (Codec.Corrupt "journal record magic");
  let seq = Codec.Reader.u64 r in
  let kind = Codec.Reader.u8 r in
  let next_ino = Codec.Reader.u64 r in
  let n = Codec.Reader.u32 r in
  let inodes = List.init n (fun _ -> get_inode r) in
  let nd = Codec.Reader.u32 r in
  let deleted = List.init nd (fun _ -> Codec.Reader.u64 r) in
  let body_len = String.length s - Codec.Reader.remaining r in
  let crc_stored =
    Codec.Reader.u32 (Codec.Reader.of_string (String.sub s body_len 4))
  in
  if Codec.crc (String.sub s 0 body_len) <> crc_stored then
    raise (Codec.Corrupt "journal record crc");
  (body_len + 4, seq, kind, next_ino, inodes, deleted)

(* {2 Committing} *)

let rec commit t =
  let incr_inodes =
    Hashtbl.fold
      (fun ino () acc ->
        match Hashtbl.find_opt t.inodes ino with
        | Some i -> i :: acc
        | None -> acc)
      t.dirty_inodes []
  in
  let deleted = t.deleted in
  if incr_inodes <> [] || deleted <> [] || t.commits = 0 then begin
    let record = serialize_record t ~kind:0 ~inodes:incr_inodes ~deleted in
    let blocks_needed =
      (String.length record + t.block_bytes - 1) / t.block_bytes
    in
    if t.journal_head + blocks_needed > 1 + t.cfg.journal_blocks then begin
      compact t;
      (* after compaction the increment is already covered *)
      ()
    end
    else begin
      write_block_raw t ~addr:t.journal_head (pad_to_blocks t record);
      t.journal_head <- t.journal_head + blocks_needed;
      t.seq <- t.seq + 1;
      t.commits <- t.commits + 1;
      Hashtbl.reset t.dirty_inodes;
      t.deleted <- []
    end
  end

(* Restart the journal with one checkpoint record holding everything. *)
and compact t =
  let all = Hashtbl.fold (fun _ i acc -> i :: acc) t.inodes [] in
  let record = serialize_record t ~kind:1 ~inodes:all ~deleted:[] in
  let blocks_needed =
    (String.length record + t.block_bytes - 1) / t.block_bytes
  in
  if blocks_needed > t.cfg.journal_blocks then
    raise (Codec.Corrupt "journal too small for a checkpoint; reformat");
  write_block_raw t ~addr:1 (pad_to_blocks t record);
  t.journal_head <- 1 + blocks_needed;
  t.seq <- t.seq + 1;
  t.compactions <- t.compactions + 1;
  Hashtbl.reset t.dirty_inodes;
  t.deleted <- []

(* {2 Superblock} *)

let serialize_superblock ~block_bytes ~total_blocks ~journal_blocks =
  let w = Codec.Writer.create () in
  Codec.Writer.string w magic;
  Codec.Writer.u32 w block_bytes;
  Codec.Writer.u64 w total_blocks;
  Codec.Writer.u32 w journal_blocks;
  let body = Codec.Writer.contents w in
  let w2 = Codec.Writer.create () in
  Codec.Writer.u32 w2 (Codec.crc body);
  body ^ Codec.Writer.contents w2

let parse_superblock s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> magic then raise (Codec.Corrupt "jfs superblock magic");
  let block_bytes = Codec.Reader.u32 r in
  let total_blocks = Codec.Reader.u64 r in
  let journal_blocks = Codec.Reader.u32 r in
  let body_len = String.length s - Codec.Reader.remaining r in
  let crc_stored =
    Codec.Reader.u32 (Codec.Reader.of_string (String.sub s body_len 4))
  in
  if Codec.crc (String.sub s 0 body_len) <> crc_stored then
    raise (Codec.Corrupt "jfs superblock crc");
  (block_bytes, total_blocks, journal_blocks)

(* {2 Construction} *)

let make_t ?registry ?(name = "jfs") ~cfg sched driver ~block_bytes
    ~total_blocks () =
  let spb = block_bytes / Driver.sector_bytes driver in
  if spb < 1 || block_bytes mod Driver.sector_bytes driver <> 0 then
    invalid_arg "Jfs: block size must be a multiple of the sector size";
  let data0 = 1 + cfg.journal_blocks in
  if total_blocks - data0 < 8 then invalid_arg "Jfs: disk too small";
  let c_commits =
    match registry with
    | Some r ->
      Capfs_stats.Registry.register r
        (Capfs_stats.Stat.scalar (name ^ ".commits"));
      Capfs_stats.Registry.counter r (name ^ ".commits")
    | None -> Capfs_stats.Counter.null
  in
  {
    sched;
    driver;
    c_commits;
    lname = name;
    cfg;
    block_bytes;
    spb;
    total_blocks;
    data0;
    inodes = Hashtbl.create 256;
    bitmap = Bytes.make (((total_blocks - data0) + 7) / 8) '\000';
    next_ino = 1;
    seq = 1;
    journal_head = 1;
    dirty_inodes = Hashtbl.create 64;
    deleted = [];
    rotor = 0;
    commits = 0;
    compactions = 0;
    data_writes = 0;
  }

let total_blocks_of driver ~block_bytes =
  Driver.total_sectors driver * Driver.sector_bytes driver / block_bytes

(* {2 The Layout.t interface} *)

let to_layout t =
  ignore_sched t;
  let alloc_inode ~kind =
    let ino = t.next_ino in
    t.next_ino <- ino + 1;
    let i = Inode.make ~ino ~kind ~now:(Sched.now t.sched) in
    Hashtbl.replace t.inodes ino i;
    Hashtbl.replace t.dirty_inodes ino ();
    i
  in
  let get_inode ino = Hashtbl.find_opt t.inodes ino in
  let update_inode (i : Inode.t) =
    Hashtbl.replace t.inodes i.Inode.ino i;
    Hashtbl.replace t.dirty_inodes i.Inode.ino ()
  in
  let free_inode ino =
    (match Hashtbl.find_opt t.inodes ino with
    | Some i -> List.iter (fun (_, a) -> free_block t a) (Inode.mapped i)
    | None -> ());
    Hashtbl.remove t.inodes ino;
    Hashtbl.remove t.dirty_inodes ino;
    t.deleted <- ino :: t.deleted
  in
  let read_block (i : Inode.t) blk =
    match Inode.get_addr i blk with
    | a when a = Inode.addr_none -> Data.sim t.block_bytes
    | addr -> read_block_raw t ~addr
  in
  (* Vectored write-back: resolve/allocate every address, then write
     each physically consecutive run as one gather request. *)
  let write_blocks updates =
    let resolved =
      List.filter_map
        (fun (ino, blk, data) ->
          match Hashtbl.find_opt t.inodes ino with
          | None -> None
          | Some i ->
            let addr =
              match Inode.get_addr i blk with
              | a when a = Inode.addr_none ->
                let a = alloc_block t in
                Inode.set_addr i blk a;
                Hashtbl.replace t.dirty_inodes ino ();
                a
              | a -> a
            in
            t.data_writes <- t.data_writes + 1;
            Some (addr, data))
        updates
    in
    let run_addr = ref (-1) and run_len = ref 0 and run_data = ref [] in
    let flush_run () =
      if !run_len > 0 then
        Driver.write_exn t.driver
          ~lba:(!run_addr * t.spb)
          (Data.gather (List.rev !run_data))
    in
    List.iter
      (fun (addr, data) ->
        if !run_len > 0 && addr = !run_addr + !run_len then begin
          run_data := data :: !run_data;
          incr run_len
        end
        else begin
          flush_run ();
          run_addr := addr;
          run_len := 1;
          run_data := [ data ]
        end)
      resolved;
    flush_run ()
  in
  let truncate (i : Inode.t) ~blocks =
    List.iter (free_block t) (Inode.truncate_blocks i ~blocks);
    Hashtbl.replace t.dirty_inodes i.Inode.ino ()
  in
  let adopt (i : Inode.t) ~blocks =
    for k = 0 to blocks - 1 do
      if Inode.get_addr i k = Inode.addr_none then
        Inode.set_addr i k (alloc_block t)
    done;
    Hashtbl.replace t.inodes i.Inode.ino i;
    Hashtbl.replace t.dirty_inodes i.Inode.ino ()
  in
  let sync () =
    commit t;
    Capfs_stats.Counter.record t.c_commits 1.
  in
  let free_blocks () =
    let n = ref 0 in
    for j = 0 to data_blocks t - 1 do
      if not (bit_get t.bitmap j) then incr n
    done;
    !n
  in
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
    sync = (fun () -> Errno.catch (fun () -> sync ()));
    free_blocks;
    layout_stats =
      (fun () ->
        [
          ("commits", float_of_int t.commits);
          ("compactions", float_of_int t.compactions);
          ("data_writes", float_of_int t.data_writes);
          ("journal_head", float_of_int t.journal_head);
          ("inodes", float_of_int (Hashtbl.length t.inodes));
        ]);
  }

let format ?(config = default_config) sched driver ~block_bytes =
  let total_blocks = total_blocks_of driver ~block_bytes in
  let t = make_t ~cfg:config sched driver ~block_bytes ~total_blocks () in
  write_block_raw t ~addr:0
    (pad_to_blocks t
       (serialize_superblock ~block_bytes ~total_blocks
          ~journal_blocks:config.journal_blocks));
  compact t

let format_and_mount ?registry ?(name = "jfs") ?(config = default_config)
    sched driver ~block_bytes =
  let total_blocks = total_blocks_of driver ~block_bytes in
  let t =
    make_t ?registry ~name ~cfg:config sched driver ~block_bytes ~total_blocks
      ()
  in
  write_block_raw t ~addr:0
    (pad_to_blocks t
       (serialize_superblock ~block_bytes ~total_blocks
          ~journal_blocks:config.journal_blocks));
  compact t;
  to_layout t

(* Replay: scan the journal block by block. A record may span several
   blocks; read enough to parse or fail its crc. The newest checkpoint
   resets state; later increments apply on top; a torn record ends the
   scan. *)
let mount ?registry ?(name = "jfs") sched driver =
  let sector = Driver.sector_bytes driver in
  let sb = Driver.read_exn driver ~lba:0 ~sectors:(4096 / sector) in
  if not (Data.is_real sb) then
    raise (Codec.Corrupt "Jfs.mount: simulated disk holds no metadata");
  let block_bytes, total_blocks, journal_blocks =
    parse_superblock (Data.to_string sb)
  in
  let cfg = { journal_blocks } in
  let t =
    make_t ?registry ~name ~cfg sched driver ~block_bytes ~total_blocks ()
  in
  (* read the whole journal region once *)
  let region =
    Data.to_string
      (Driver.read_exn driver ~lba:(1 * t.spb)
         ~sectors:(journal_blocks * t.spb))
  in
  let apply (kind, next_ino, inodes, deleted) =
    if kind = 1 then Hashtbl.reset t.inodes;
    List.iter (fun (i : Inode.t) -> Hashtbl.replace t.inodes i.Inode.ino i)
      inodes;
    List.iter (fun ino -> Hashtbl.remove t.inodes ino) deleted;
    t.next_ino <- Stdlib.max t.next_ino next_ino
  in
  let rec scan blk =
    if blk >= journal_blocks then ()
    else begin
      let offset = blk * block_bytes in
      match
        parse_record
          (String.sub region offset (String.length region - offset))
      with
      | consumed, seq, kind, next_ino, inodes, deleted ->
        apply (kind, next_ino, inodes, deleted);
        t.seq <- Stdlib.max t.seq (seq + 1);
        let blocks = (consumed + block_bytes - 1) / block_bytes in
        t.journal_head <- 1 + blk + blocks;
        scan (blk + blocks)
      | exception (Codec.Corrupt _ | Invalid_argument _) ->
        () (* torn tail: stop *)
    end
  in
  scan 0;
  (* rebuild the allocation bitmap from the live inodes *)
  Hashtbl.iter
    (fun _ i ->
      List.iter
        (fun (_, addr) ->
          let j = addr - t.data0 in
          if j >= 0 && j < data_blocks t then bit_set t.bitmap j true)
        (Inode.mapped i))
    t.inodes;
  to_layout t
