module Sched = Capfs_sched.Sched
module Driver = Capfs_disk.Driver
module Iorequest = Capfs_disk.Iorequest
module Data = Capfs_disk.Data

let transport ?(sector_bytes = 512) sched ~path ~size_bytes () =
  if size_bytes < sector_bytes then
    invalid_arg "File_blockdev.transport: size smaller than one sector";
  (* a short image is not grown: reads past its end are zeroes, and a
     write past it extends the file *)
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let total_sectors = size_bytes / sector_bytes in
  let pread ~off ~len =
    let buf = Bytes.make len '\000' in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec fill pos =
      if pos < len then begin
        let n = Unix.read fd buf pos (len - pos) in
        if n = 0 then () (* sparse tail reads as zeroes *)
        else fill (pos + n)
      end
    in
    fill 0;
    buf
  in
  (* One write per request. A real payload goes out as it is; a gather
     (a merged request, or a segment of LFS blocks and metadata padded
     with simulated zeroes) is flattened into a reused scratch buffer,
     simulated runs as zeroes, so a segment costs one call, not one per
     piece. *)
  let scratch = ref Bytes.empty in
  let scratch_for len =
    if Bytes.length !scratch < len then scratch := Bytes.create len;
    !scratch
  in
  let write_seq b pos len =
    let rec drain pos remaining =
      if remaining > 0 then begin
        let n = Unix.write fd b pos remaining in
        drain (pos + n) (remaining - n)
      end
    in
    drain pos len
  in
  let pwrite ~off (d : Data.t) =
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    match d with
    | Data.Real b -> write_seq b 0 (Bytes.length b)
    | Data.Sim _ | Data.Gather _ ->
      let len = Data.length d in
      let buf = scratch_for len in
      Data.blit ~src:d ~src_pos:0 ~dst:(Data.Real buf) ~dst_pos:0 ~len;
      write_seq buf 0 len
  in
  let execute ~queue_empty:_ (req : Iorequest.t) =
    if Iorequest.last_lba req > total_sectors then
      invalid_arg "File_blockdev: request beyond device";
    req.Iorequest.started_at <- Sched.now sched;
    let off = req.Iorequest.lba * sector_bytes in
    let len = req.Iorequest.sectors * sector_bytes in
    (match req.Iorequest.op with
    | Iorequest.Read -> req.Iorequest.data <- Some (Data.Real (pread ~off ~len))
    | Iorequest.Write -> (
      match req.Iorequest.data with
      | Some d -> pwrite ~off d
      | None -> ()));
    Iorequest.complete sched req
  in
  (* the transport owns its descriptor: two transports on one path
     close their own *)
  let closed = ref false in
  {
    Driver.t_name = "file:" ^ path;
    sector_bytes;
    total_sectors;
    execute;
    current_cylinder = (fun () -> 0);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Unix.close fd
        end);
  }

let close (t : Driver.transport) = t.Driver.close ()
