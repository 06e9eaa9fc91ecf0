module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Errno = Capfs_core.Errno
module Stats = Capfs_stats
module Counter = Capfs_stats.Counter

let src = Logs.Src.create "capfs.ffs" ~doc:"FFS-like update-in-place layout"

module Log = (val Logs.src_log src : Logs.LOG)

type config = { group_blocks : int; inodes_per_group : int }

let default_config = { group_blocks = 2048; inodes_per_group = 64 }

let magic = "CAPFFS01"

type group = {
  base : int; (* first block of the group *)
  block_bitmap : Bytes.t; (* bit per block within the group *)
  inode_bitmap : Bytes.t;
  mutable dirty : bool;
  mutable rotor : int; (* next allocation probe *)
}

type t = {
  sched : Sched.t;
  driver : Driver.t;
  c_alloc : Counter.t;
  lname : string;
  cfg : config;
  block_bytes : int;
  spb : int;
  total_blocks : int;
  ngroups : int;
  groups : group array;
  inodes : (int, Inode.t) Hashtbl.t;
  indirect_of : (int, int list) Hashtbl.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  mutable next_dir_group : int;
  mutable data_writes : int;
  mutable metadata_writes : int;
}

(* {2 Bitmaps} *)

let bit_get b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set b i v =
  let cur = Char.code (Bytes.get b (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set b (i / 8) (Char.chr (if v then cur lor mask else cur land lnot mask))

(* {2 Geometry} *)

let meta_blocks cfg = 2 + cfg.inodes_per_group (* bitmaps + inode table *)
let group_base t g = 1 + (g * t.cfg.group_blocks)
let inode_addr t ino =
  let g = (ino - 1) / t.cfg.inodes_per_group in
  let slot = (ino - 1) mod t.cfg.inodes_per_group in
  group_base t g + 2 + slot

let group_of_ino t ino = (ino - 1) / t.cfg.inodes_per_group

let write_block_raw t ~addr data =
  Driver.write_exn t.driver ~lba:(addr * t.spb) data
let read_block_raw t ~addr =
  Driver.read_exn t.driver ~lba:(addr * t.spb) ~sectors:t.spb

let pad_to_block t s =
  let b = Bytes.make t.block_bytes '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  Data.Real b

(* {2 Block allocation} *)

(* First-fit from the group's rotor; spill to following groups. *)
let alloc_block t ~prefer_group =
  let try_group g =
    let grp = t.groups.(g) in
    let n = t.cfg.group_blocks in
    let rec probe i tried =
      if tried >= n then None
      else begin
        let j = (grp.rotor + i) mod n in
        if not (bit_get grp.block_bitmap j) then begin
          bit_set grp.block_bitmap j true;
          grp.dirty <- true;
          grp.rotor <- (j + 1) mod n;
          Some (grp.base + j)
        end
        else probe (i + 1) (tried + 1)
      end
    in
    probe 0 0
  in
  let rec scan i =
    if i >= t.ngroups then raise (Errno.Error Errno.ENOSPC)
    else
      match try_group ((prefer_group + i) mod t.ngroups) with
      | Some addr -> addr
      | None -> scan (i + 1)
  in
  scan 0

let free_block t addr =
  if addr >= 1 then begin
    let g = (addr - 1) / t.cfg.group_blocks in
    if g < t.ngroups then begin
      let grp = t.groups.(g) in
      let j = addr - grp.base in
      if j >= 0 && j < t.cfg.group_blocks then begin
        bit_set grp.block_bitmap j false;
        grp.dirty <- true
      end
    end
  end

let free_blocks_total t =
  let n = ref 0 in
  Array.iter
    (fun grp ->
      for j = 0 to t.cfg.group_blocks - 1 do
        if not (bit_get grp.block_bitmap j) then incr n
      done)
    t.groups;
  !n

(* {2 Inode persistence} *)

let write_inode_now t (inode : Inode.t) =
  let ino = inode.Inode.ino in
  (* re-spill indirect blocks in place *)
  (match Hashtbl.find_opt t.indirect_of ino with
  | Some olds -> List.iter (free_block t) olds
  | None -> ());
  let per = Inode.addrs_per_indirect ~block_bytes:t.block_bytes in
  let spill = Stdlib.max 0 (inode.Inode.nblocks - Inode.ndirect) in
  let n_ind = (spill + per - 1) / per in
  let g = group_of_ino t ino in
  let indirect =
    List.init n_ind (fun k ->
        let w = Codec.Writer.create () in
        let base = Inode.ndirect + (k * per) in
        let count = Stdlib.min per (inode.Inode.nblocks - base) in
        Codec.Writer.u32 w count;
        for i = base to base + count - 1 do
          Codec.Writer.u64 w (Inode.get_addr inode i + 1)
        done;
        let addr = alloc_block t ~prefer_group:g in
        write_block_raw t ~addr (pad_to_block t (Codec.Writer.contents w));
        t.metadata_writes <- t.metadata_writes + 1;
        addr)
  in
  Hashtbl.replace t.indirect_of ino indirect;
  write_block_raw t ~addr:(inode_addr t ino)
    (pad_to_block t (Inode.serialize inode ~indirect));
  t.metadata_writes <- t.metadata_writes + 1

let flush_dirty_inodes t =
  let inos =
    Hashtbl.fold (fun ino () acc -> ino :: acc) t.dirty_inodes []
    |> List.sort compare
  in
  List.iter
    (fun ino ->
      Hashtbl.remove t.dirty_inodes ino;
      match Hashtbl.find_opt t.inodes ino with
      | Some inode -> write_inode_now t inode
      | None -> ())
    inos

let write_group_metadata t =
  Array.iteri
    (fun _g grp ->
      if grp.dirty then begin
        grp.dirty <- false;
        write_block_raw t ~addr:grp.base
          (pad_to_block t (Bytes.to_string grp.block_bitmap));
        write_block_raw t ~addr:(grp.base + 1)
          (pad_to_block t (Bytes.to_string grp.inode_bitmap));
        t.metadata_writes <- t.metadata_writes + 2
      end)
    t.groups

(* {2 Superblock} *)

let serialize_superblock t =
  let w = Codec.Writer.create () in
  Codec.Writer.string w magic;
  Codec.Writer.u32 w t.block_bytes;
  Codec.Writer.u64 w t.total_blocks;
  Codec.Writer.u32 w t.cfg.group_blocks;
  Codec.Writer.u32 w t.ngroups;
  Codec.Writer.u32 w t.cfg.inodes_per_group;
  let body = Codec.Writer.contents w in
  let w2 = Codec.Writer.create () in
  Codec.Writer.u32 w2 (Codec.crc body);
  body ^ Codec.Writer.contents w2

let parse_superblock s =
  let r = Codec.Reader.of_string s in
  let m = Codec.Reader.string r in
  if m <> magic then raise (Codec.Corrupt "ffs superblock magic");
  let block_bytes = Codec.Reader.u32 r in
  let total_blocks = Codec.Reader.u64 r in
  let group_blocks = Codec.Reader.u32 r in
  let ngroups = Codec.Reader.u32 r in
  let inodes_per_group = Codec.Reader.u32 r in
  (block_bytes, total_blocks, group_blocks, ngroups, inodes_per_group)

(* {2 Construction} *)

let bitmap_bytes t = (t.cfg.group_blocks + 7) / 8

let make_t ?registry ?(name = "ffs") ~cfg sched driver ~block_bytes
    ~total_blocks ~ngroups () =
  let spb = block_bytes / Driver.sector_bytes driver in
  if spb < 1 || block_bytes mod Driver.sector_bytes driver <> 0 then
    invalid_arg "Ffs: block size must be a multiple of the sector size";
  if cfg.group_blocks <= meta_blocks cfg + 8 then
    invalid_arg "Ffs: group too small for its metadata";
  let c_alloc =
    match registry with
    | Some r ->
      Stats.Registry.register r (Stats.Stat.scalar (name ^ ".alloc"));
      Stats.Registry.counter r (name ^ ".alloc")
    | None -> Counter.null
  in
  let t =
    {
      sched;
      driver;
      c_alloc;
      lname = name;
      cfg;
      block_bytes;
      spb;
      total_blocks;
      ngroups;
      groups = [||];
      inodes = Hashtbl.create 1024;
      indirect_of = Hashtbl.create 64;
      dirty_inodes = Hashtbl.create 64;
      next_dir_group = 0;
      data_writes = 0;
      metadata_writes = 0;
    }
  in
  let groups =
    Array.init ngroups (fun g ->
        {
          base = 1 + (g * cfg.group_blocks);
          block_bitmap = Bytes.make (bitmap_bytes t) '\000';
          inode_bitmap = Bytes.make ((cfg.inodes_per_group + 7) / 8) '\000';
          dirty = false;
          rotor = meta_blocks cfg;
        })
  in
  let t = { t with groups } in
  (* metadata blocks are permanently allocated *)
  Array.iter
    (fun grp ->
      for j = 0 to meta_blocks cfg - 1 do
        bit_set grp.block_bitmap j true
      done)
    t.groups;
  t

let total_blocks_of driver ~block_bytes =
  Driver.total_sectors driver * Driver.sector_bytes driver / block_bytes

(* {2 The Layout.t interface} *)

let to_layout t =
  let now () = Sched.now t.sched in
  let alloc_inode ~kind =
    (* directories round-robin across groups; files join the last
       directory group (a crude stand-in for "near the parent") *)
    let g0 =
      match kind with
      | Inode.Directory ->
        let g = t.next_dir_group in
        t.next_dir_group <- (g + 1) mod t.ngroups;
        g
      | Inode.Regular | Inode.Symlink | Inode.Multimedia -> t.next_dir_group
    in
    let rec scan i =
      if i >= t.ngroups then raise (Errno.Error Errno.ENOSPC)
      else begin
        let g = (g0 + i) mod t.ngroups in
        let grp = t.groups.(g) in
        let rec slot j =
          if j >= t.cfg.inodes_per_group then None
          else if not (bit_get grp.inode_bitmap j) then Some j
          else slot (j + 1)
        in
        match slot 0 with
        | Some j ->
          bit_set grp.inode_bitmap j true;
          grp.dirty <- true;
          (g * t.cfg.inodes_per_group) + j + 1
        | None -> scan (i + 1)
      end
    in
    let ino = scan 0 in
    Counter.record t.c_alloc (float_of_int ino);
    let inode = Inode.make ~ino ~kind ~now:(now ()) in
    Hashtbl.replace t.inodes ino inode;
    Hashtbl.replace t.dirty_inodes ino ();
    inode
  in
  let get_inode ino =
    match Hashtbl.find_opt t.inodes ino with
    | Some i -> Some i
    | None ->
      let g = group_of_ino t ino in
      if g < 0 || g >= t.ngroups then None
      else begin
        let slot = (ino - 1) mod t.cfg.inodes_per_group in
        if not (bit_get t.groups.(g).inode_bitmap slot) then None
        else begin
          let data = read_block_raw t ~addr:(inode_addr t ino) in
          if not (Data.is_real data) then None
          else begin
            let inode, indirect = Inode.deserialize (Data.to_string data) in
            let per = Inode.addrs_per_indirect ~block_bytes:t.block_bytes in
            List.iteri
              (fun k ind_addr ->
                let d = read_block_raw t ~addr:ind_addr in
                let r = Codec.Reader.of_string (Data.to_string d) in
                let count = Codec.Reader.u32 r in
                let base = Inode.ndirect + (k * per) in
                for i = 0 to count - 1 do
                  Inode.set_addr inode (base + i) (Codec.Reader.u64 r - 1)
                done)
              indirect;
            Hashtbl.replace t.inodes ino inode;
            Hashtbl.replace t.indirect_of ino indirect;
            Some inode
          end
        end
      end
  in
  let update_inode (inode : Inode.t) =
    Hashtbl.replace t.inodes inode.Inode.ino inode;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let free_inode ino =
    (match get_inode ino with
    | Some inode ->
      List.iter (fun (_, a) -> free_block t a) (Inode.mapped inode)
    | None -> ());
    (match Hashtbl.find_opt t.indirect_of ino with
    | Some addrs -> List.iter (free_block t) addrs
    | None -> ());
    let g = group_of_ino t ino in
    if g >= 0 && g < t.ngroups then begin
      let slot = (ino - 1) mod t.cfg.inodes_per_group in
      bit_set t.groups.(g).inode_bitmap slot false;
      t.groups.(g).dirty <- true
    end;
    Hashtbl.remove t.inodes ino;
    Hashtbl.remove t.indirect_of ino;
    Hashtbl.remove t.dirty_inodes ino
  in
  let read_block (inode : Inode.t) blk =
    match Inode.get_addr inode blk with
    | a when a = Inode.addr_none -> Data.sim t.block_bytes
    | addr -> read_block_raw t ~addr
  in
  (* Vectored write-back: resolve (allocating where needed, so an
     extent of fresh blocks lands contiguously via the rotor), then
     write each physically consecutive run as one gather request. *)
  let write_blocks updates =
    let resolved =
      List.filter_map
        (fun (ino, blk, data) ->
          match get_inode ino with
          | None ->
            Log.warn (fun m -> m "write_blocks: unknown ino %d" ino);
            None
          | Some inode ->
            let addr =
              match Inode.get_addr inode blk with
              | a when a = Inode.addr_none ->
                let a = alloc_block t ~prefer_group:(group_of_ino t ino) in
                Inode.set_addr inode blk a;
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
  let truncate (inode : Inode.t) ~blocks =
    let dropped = Inode.truncate_blocks inode ~blocks in
    List.iter (free_block t) dropped;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let adopt (inode : Inode.t) ~blocks =
    let g = group_of_ino t inode.Inode.ino in
    for i = 0 to blocks - 1 do
      if Inode.get_addr inode i = Inode.addr_none then
        Inode.set_addr inode i (alloc_block t ~prefer_group:g)
    done;
    Hashtbl.replace t.inodes inode.Inode.ino inode;
    Hashtbl.replace t.dirty_inodes inode.Inode.ino ()
  in
  let sync () =
    flush_dirty_inodes t;
    write_group_metadata t
  in
  let layout_stats () =
    [
      ("free_blocks", float_of_int (free_blocks_total t));
      ("data_writes", float_of_int t.data_writes);
      ("metadata_writes", float_of_int t.metadata_writes);
      ("inodes", float_of_int (Hashtbl.length t.inodes));
    ]
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
    free_blocks = (fun () -> free_blocks_total t);
    layout_stats;
  }

let format ?(config = default_config) sched driver ~block_bytes =
  let total_blocks = total_blocks_of driver ~block_bytes in
  let ngroups = (total_blocks - 1) / config.group_blocks in
  if ngroups < 1 then invalid_arg "Ffs.format: disk too small";
  let t =
    make_t ~cfg:config sched driver ~block_bytes ~total_blocks ~ngroups ()
  in
  write_block_raw t ~addr:0 (pad_to_block t (serialize_superblock t));
  write_group_metadata t

let mount ?registry ?(name = "ffs") sched driver =
  let sector = Driver.sector_bytes driver in
  let sb_data = Driver.read_exn driver ~lba:0 ~sectors:(4096 / sector) in
  if not (Data.is_real sb_data) then
    raise (Codec.Corrupt "Ffs.mount: simulated disk holds no metadata; use format_and_mount");
  let block_bytes, total_blocks, group_blocks, ngroups, inodes_per_group =
    parse_superblock (Data.to_string sb_data)
  in
  let cfg = { group_blocks; inodes_per_group } in
  let t =
    make_t ?registry ~name ~cfg sched driver ~block_bytes ~total_blocks
      ~ngroups ()
  in
  Array.iter
    (fun grp ->
      let bm = read_block_raw t ~addr:grp.base in
      let im = read_block_raw t ~addr:(grp.base + 1) in
      (if Data.is_real bm then
         Data.blit ~src:bm ~src_pos:0 ~dst:(Data.Real grp.block_bitmap)
           ~dst_pos:0 ~len:(bitmap_bytes t)
       else raise (Codec.Corrupt "ffs bitmap unreadable"));
      if Data.is_real im then
        Data.blit ~src:im ~src_pos:0 ~dst:(Data.Real grp.inode_bitmap)
          ~dst_pos:0
          ~len:(Bytes.length grp.inode_bitmap)
      else raise (Codec.Corrupt "ffs inode bitmap unreadable"))
    t.groups;
  to_layout t

let format_and_mount ?registry ?(name = "ffs") ?(config = default_config)
    sched driver ~block_bytes =
  let total_blocks = total_blocks_of driver ~block_bytes in
  let ngroups = (total_blocks - 1) / config.group_blocks in
  if ngroups < 1 then invalid_arg "Ffs: disk too small";
  let t =
    make_t ?registry ~name ~cfg:config sched driver ~block_bytes ~total_blocks
      ~ngroups ()
  in
  write_block_raw t ~addr:0 (pad_to_block t (serialize_superblock t));
  write_group_metadata t;
  to_layout t
