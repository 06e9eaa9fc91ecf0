(* mkfs: format a PFS image file with the segmented-LFS layout, the one
   layout `pfs` mounts. *)

open Cmdliner
module Sched = Capfs_sched.Sched
module Driver = Capfs_disk.Driver
module Pfs = Capfs_pfs.Pfs
module Errno = Capfs_core.Errno

let format_image image size_mb seg_blocks =
  (* the size and segment knobs are pfs's: refuse what pfs would refuse
     (a volume too small for its LFS), before the image is created *)
  match Pfs.Config.validate (Pfs.Config.make ~image ~size_mb ~seg_blocks ()) with
  | Error e ->
    prerr_endline ("mkfs.capfs: bad configuration (" ^ Errno.to_string e ^ ")");
    1
  | Ok cfg ->
    let sched = Sched.create ~clock:`Real () in
    let transport =
      Capfs_pfs.File_blockdev.transport sched ~path:image
        ~size_bytes:(size_mb * 1024 * 1024) ()
    in
    let driver = Driver.create sched transport in
    ignore
      (Sched.spawn sched (fun () ->
           ignore
             (Capfs_layout.Lfs.format_and_mount
                ~config:(Pfs.Config.stack_config cfg).Capfs.Stack.lfs sched
                driver ~block_bytes:Pfs.block_bytes);
           Printf.printf "%s: %d MB segmented LFS (%d-block segments)\n" image
             size_mb seg_blocks));
    Sched.run sched;
    Capfs_pfs.File_blockdev.close transport;
    0

let image =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")

let size_mb = Arg.(value & opt int 64 & info [ "size-mb" ] ~docv:"MB")
let seg_blocks = Arg.(value & opt int 128 & info [ "seg-blocks" ])

let cmd =
  Cmd.v
    (Cmd.info "mkfs.capfs" ~doc:"format a cut-and-paste file-system image")
    Term.(const format_image $ image $ size_mb $ seg_blocks)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  exit (Cmd.eval' cmd)
