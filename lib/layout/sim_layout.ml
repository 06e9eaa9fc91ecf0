module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Errno = Capfs_core.Errno

let create ?registry ?(name = "simlayout") ?(seed = 1996) sched driver
    ~block_bytes =
  let c_guesses =
    match registry with
    | Some r ->
      Capfs_stats.Registry.register r
        (Capfs_stats.Stat.scalar (name ^ ".guesses"));
      Capfs_stats.Registry.counter r (name ^ ".guesses")
    | None -> Capfs_stats.Counter.null
  in
  let prng = Capfs_stats.Prng.create ~seed in
  let spb = block_bytes / Driver.sector_bytes driver in
  if spb < 1 || block_bytes mod Driver.sector_bytes driver <> 0 then
    invalid_arg "Sim_layout: block size must be a multiple of the sector size";
  let total_blocks =
    Driver.total_sectors driver * Driver.sector_bytes driver / block_bytes
  in
  let origins : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let inodes : (int, Inode.t) Hashtbl.t = Hashtbl.create 1024 in
  let loaded : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let next_ino = ref 1 in
  let guesses = ref 0 in
  let origin_of ino =
    match Hashtbl.find_opt origins ino with
    | Some o -> o
    | None ->
      incr guesses;
      Capfs_stats.Counter.record c_guesses 1.;
      let o = Capfs_stats.Prng.int prng total_blocks in
      Hashtbl.replace origins ino o;
      o
  in
  let addr_of ino blk = (origin_of ino + blk) mod total_blocks in
  let charge_inode_load ino =
    (* first touch of an unknown file costs one inode read *)
    if not (Hashtbl.mem loaded ino) then begin
      Hashtbl.replace loaded ino ();
      let addr = (origin_of ino + total_blocks - 1) mod total_blocks in
      ignore (Driver.read_exn driver ~lba:(addr * spb) ~sectors:spb)
    end
  in
  let alloc_inode ~kind =
    let ino = !next_ino in
    incr next_ino;
    let inode = Inode.make ~ino ~kind ~now:(Sched.now sched) in
    Hashtbl.replace inodes ino inode;
    Hashtbl.replace loaded ino ();
    inode
  in
  let get_inode ino =
    match Hashtbl.find_opt inodes ino with
    | Some i ->
      charge_inode_load ino;
      Some i
    | None -> None
  in
  let update_inode (inode : Inode.t) =
    Hashtbl.replace inodes inode.Inode.ino inode
  in
  let free_inode ino =
    Hashtbl.remove inodes ino;
    Hashtbl.remove origins ino;
    Hashtbl.remove loaded ino
  in
  let read_block (inode : Inode.t) blk =
    charge_inode_load inode.Inode.ino;
    Driver.read_exn driver ~lba:(addr_of inode.Inode.ino blk * spb)
      ~sectors:spb
  in
  (* Vectored write-back: physically consecutive updates coalesce into
     one gather request (all-simulated payloads gather for free). *)
  let write_blocks updates =
    let run_addr = ref (-1) and run_len = ref 0 and run_data = ref [] in
    let flush_run () =
      if !run_len > 0 then
        Driver.write_exn driver ~lba:(!run_addr * spb)
          (Data.gather (List.rev !run_data))
    in
    List.iter
      (fun (ino, blk, data) ->
        let data =
          if Data.length data = block_bytes then data else Data.sim block_bytes
        in
        let addr = addr_of ino blk in
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
      updates;
    flush_run ()
  in
  let truncate (inode : Inode.t) ~blocks =
    ignore (Inode.truncate_blocks inode ~blocks)
  in
  let adopt (inode : Inode.t) ~blocks =
    (* addresses are implicit (origin + index); just fix the origin *)
    ignore (origin_of inode.Inode.ino);
    if blocks > 0 then
      Inode.set_addr inode (blocks - 1) (addr_of inode.Inode.ino (blocks - 1))
  in
  {
    Layout.l_name = name;
    block_bytes;
    total_blocks;
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
    sync = (fun () -> Ok ());
    free_blocks = (fun () -> total_blocks);
    layout_stats =
      (fun () ->
        [
          ("files_placed", float_of_int (Hashtbl.length origins));
          ("guesses", float_of_int !guesses);
        ]);
  }
