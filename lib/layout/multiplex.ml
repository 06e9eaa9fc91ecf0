let layout volumes =
  let k = Array.length volumes in
  if k = 0 then invalid_arg "Multiplex.layout: no volumes";
  if k = 1 then volumes.(0)
  else begin
    let block_bytes = volumes.(0).Layout.block_bytes in
    Array.iter
      (fun v ->
        if v.Layout.block_bytes <> block_bytes then
          invalid_arg "Multiplex.layout: volumes disagree on block size")
      volumes;
    let vol_of_ino ino = volumes.((ino - 1) mod k) in
    let next_vol = ref 0 in
    let alloc_inode ~kind =
      let v = !next_vol in
      next_vol := (v + 1) mod k;
      volumes.(v).Layout.alloc_inode ~kind
    in
    let write_blocks updates =
      (* split the batch per volume, preserving order within each *)
      let per_vol = Array.make k [] in
      List.iter
        (fun ((ino, _, _) as u) ->
          let v = (ino - 1) mod k in
          per_vol.(v) <- u :: per_vol.(v))
        updates;
      let rec go v =
        if v >= k then Ok ()
        else
          match per_vol.(v) with
          | [] -> go (v + 1)
          | batch -> (
            match volumes.(v).Layout.write_blocks (List.rev batch) with
            | Ok () -> go (v + 1)
            | Error _ as e -> e)
      in
      go 0
    in
    {
      Layout.l_name = Printf.sprintf "multiplex(%d)" k;
      block_bytes;
      total_blocks =
        Array.fold_left (fun n v -> n + v.Layout.total_blocks) 0 volumes;
      alloc_inode;
      get_inode = (fun ino -> (vol_of_ino ino).Layout.get_inode ino);
      update_inode =
        (fun inode -> (vol_of_ino inode.Inode.ino).Layout.update_inode inode);
      free_inode = (fun ino -> (vol_of_ino ino).Layout.free_inode ino);
      read_block =
        (fun inode blk ->
          (vol_of_ino inode.Inode.ino).Layout.read_block inode blk);
      write_blocks;
      truncate =
        (fun inode ~blocks ->
          (vol_of_ino inode.Inode.ino).Layout.truncate inode ~blocks);
      adopt =
        (fun inode ~blocks ->
          (vol_of_ino inode.Inode.ino).Layout.adopt inode ~blocks);
      sync =
        (fun () ->
          Array.fold_left
            (fun acc v ->
              match acc with Ok () -> v.Layout.sync () | Error _ -> acc)
            (Ok ()) volumes);
      free_blocks =
        (fun () ->
          Array.fold_left (fun n v -> n + v.Layout.free_blocks ()) 0 volumes);
      layout_stats =
        (fun () ->
          Array.to_list volumes
          |> List.concat_map (fun v ->
                 List.map
                   (fun (key, value) -> (v.Layout.l_name ^ "." ^ key, value))
                   (v.Layout.layout_stats ())));
    }
  end
