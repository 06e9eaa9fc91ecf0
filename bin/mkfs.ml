(* mkfs: format a PFS image file with the segmented-LFS layout, the one
   layout `pfs` mounts. *)

open Cmdliner
module Sched = Capfs_sched.Sched
module Driver = Capfs_disk.Driver

let format_image image size_mb seg_blocks =
  let sched = Sched.create ~clock:`Real () in
  let transport =
    Capfs_pfs.File_blockdev.transport sched ~path:image
      ~size_bytes:(size_mb * 1024 * 1024) ()
  in
  let driver = Driver.create sched transport in
  ignore
    (Sched.spawn sched (fun () ->
         let config =
           { Capfs_layout.Lfs.default_config with Capfs_layout.Lfs.seg_blocks }
         in
         Capfs_layout.Lfs.format ~config sched driver ~block_bytes:4096;
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

let () = exit (Cmd.eval' cmd)
