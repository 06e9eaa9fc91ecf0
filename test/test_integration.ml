(* Cross-cutting integration tests: the same framework code over
   different substrates (Coda traces, NVRAM stacks, both engines), plus
   whole-stack invariant properties. *)

open Capfs
module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data
module Driver = Capfs_disk.Driver
module Cache = Capfs_cache.Cache
module Lfs = Capfs_layout.Lfs
module Inode = Capfs_layout.Inode
module Record = Capfs_trace.Record
module Experiment = Capfs_patsy.Experiment
module Replay = Capfs_patsy.Replay

let run_fs f =
  let s = Sched.create ~clock:`Virtual () in
  ignore (Sched.spawn s (fun () -> f s));
  Sched.run s

let cache_config capacity =
  {
    Cache.block_bytes = 4096;
    capacity_blocks = capacity;
    nvram_blocks = 0;
    trigger = Cache.Demand;
    scope = `Whole_file;
    async_flush = true;
    mem_copy_rate = 0.;
    coalesce = false;
    flush_window = 4;
    max_extent_blocks = 64;
  }

(* NVRAM-equipped full stack: dirty data bounded while ordinary I/O
   proceeds. *)
let test_client_with_nvram_stack () =
  run_fs (fun s ->
      let drv =
        Driver.create s
          (Driver.mem_transport ~latency:0.001 ~sector_bytes:512
             ~total_sectors:32768 s ())
      in
      let layout =
        Lfs.format_and_mount
          ~config:{ Lfs.default_config with Lfs.seg_blocks = 32;
                    checkpoint_blocks = 16 }
          s drv ~block_bytes:4096
      in
      let cfg = { (cache_config 64) with Cache.nvram_blocks = 16 } in
      let fs = Fsys.create ~cache_config:cfg ~layout s in
      let c = Client.create fs in
      for i = 0 to 9 do
        let p = Printf.sprintf "/f%d" i in
        Client.open_exn c ~client:1 p Client.WO;
        Client.write_exn c ~client:1 p ~offset:0
          (Data.of_string (String.make 16384 (Char.chr (97 + i))))
      done;
      Alcotest.(check bool) "nvram bounded" true
        (Cache.nvram_used fs.Fsys.cache <= 16);
      for i = 0 to 9 do
        let p = Printf.sprintf "/f%d" i in
        let d = Client.read_exn c ~client:1 p ~offset:0 ~bytes:16384 in
        Alcotest.(check string) p (String.make 16384 (Char.chr (97 + i)))
          (Data.to_string d)
      done)

(* A Coda-format trace drives the same replay machinery. *)
let test_coda_trace_replay () =
  let text =
    String.concat "\n"
      [
        "# coda-style session";
        "0.100000 1 OPEN 7f01:10 w";
        "? 1 STORE 7f01:10 0 8192";
        "0.400000 1 CLOSE 7f01:10";
        "0.600000 2 OPEN 7f01:10 r";
        "? 2 FETCH 7f01:10 0 8192";
        "0.900000 2 CLOSE 7f01:10";
        "1.000000 1 GETATTR 7f01:10";
        "1.200000 1 REMOVE 7f01:10";
      ]
  in
  let trace = Capfs_trace.Coda_format.of_string text in
  Alcotest.(check int) "parsed" 8 (Array.length trace);
  let config =
    {
      (Experiment.default Experiment.Ups) with
      Experiment.ndisks = 1;
      nbuses = 1;
      cache_mb = 2;
      nvram_mb = 1;
    }
  in
  let o = Experiment.run config ~trace:(Capfs_trace.Source.of_array trace) in
  Alcotest.(check int) "all ops" 8 o.Experiment.replay.Replay.operations;
  Alcotest.(check int) "no errors" 0 o.Experiment.replay.Replay.errors

(* Run PFS (real image) and Patsy (simulated disks) over the *same*
   operations and compare observable state — the cut-and-paste promise. *)
let test_pfs_and_patsy_agree_on_state () =
  let ops c =
    Client.mkdir_exn c "/proj";
    Client.open_exn c ~client:1 "/proj/report" Client.WO;
    Client.write_exn c ~client:1 "/proj/report" ~offset:0
      (Data.of_string (String.make 5000 'r'));
    Client.close_exn c ~client:1 "/proj/report";
    Client.truncate_exn c "/proj/report" ~size:3000;
    Client.create_file_exn c "/proj/temp";
    Client.delete_exn c "/proj/temp";
    ( (Client.stat_exn c "/proj/report").Client.st_size,
      List.map (fun e -> e.Dir.name) (Client.readdir_exn c "/proj") )
  in
  (* Patsy-style: simulated disk, sim payloads *)
  let patsy_result = ref None in
  run_fs (fun s ->
      let bus = Capfs_disk.Bus.scsi2 s in
      let disk = Capfs_disk.Sim_disk.create s Capfs_disk.Disk_model.hp97560 bus in
      let drv = Driver.create s (Driver.sim_transport disk) in
      let layout =
        Lfs.format_and_mount s drv ~block_bytes:4096
      in
      let fs = Fsys.create ~cache_config:(cache_config 64) ~layout s in
      patsy_result := Some (ops (Client.create fs)));
  (* PFS-style: real bytes in a temp image *)
  let pfs_result = ref None in
  let path = Filename.temp_file "capfs_agree" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t =
        match
          Capfs_pfs.Pfs.create
            (Capfs_pfs.Pfs.Config.make ~image:path ~size_mb:8 ~clock:`Virtual ())
        with
        | Ok t -> t
        | Error e ->
          Alcotest.failf "Pfs.create: %s" (Capfs_core.Errno.to_string e)
      in
      ignore
        (Sched.spawn t.Capfs_pfs.Pfs.sched (fun () ->
             pfs_result := Some (ops t.Capfs_pfs.Pfs.client)));
      Sched.run t.Capfs_pfs.Pfs.sched);
  match (!patsy_result, !pfs_result) with
  | Some a, Some b ->
    Alcotest.(check (pair int (list string))) "identical observable state" a b
  | _ -> Alcotest.fail "one of the stacks did not finish"

(* Whole-stack property: any random operation sequence leaves the cache
   counters consistent and sync leaves everything clean, under every
   flush policy. *)
let prop_stack_invariants =
  QCheck.Test.make ~name:"stack invariants under random ops and policies"
    ~count:20
    QCheck.(
      pair (int_range 0 3)
        (list_of_size Gen.(int_range 1 50)
           (pair (int_range 0 4) (int_range 0 5))))
    (fun (policy_idx, ops) ->
      let ok = ref true in
      run_fs (fun s ->
          let drv =
            Driver.create s
              (Driver.mem_transport ~sector_bytes:512 ~total_sectors:32768 s ())
          in
          let layout =
            Lfs.format_and_mount
              ~config:{ Lfs.default_config with Lfs.seg_blocks = 16;
                        checkpoint_blocks = 8 }
              s drv ~block_bytes:4096
          in
          let trigger, nvram =
            match policy_idx with
            | 0 -> (Cache.Periodic { max_age = 30.; scan_interval = 5. }, 0)
            | 1 -> (Cache.Demand, 0)
            | 2 -> (Cache.Demand, 8)
            | _ -> (Cache.Demand, 4)
          in
          let cfg =
            { (cache_config 16) with Cache.trigger; nvram_blocks = nvram }
          in
          let fs = Fsys.create ~cache_config:cfg ~layout s in
          let c = Client.create fs in
          List.iter
            (fun (f, action) ->
              let p = Printf.sprintf "/f%d" f in
              try
                match action with
                | 0 | 1 ->
                  Client.write_exn c ~client:1 p ~offset:(action * 4096)
                    (Data.sim 4096)
                | 2 ->
                  if Client.exists c p then
                    ignore (Client.read_exn c ~client:1 p ~offset:0 ~bytes:4096)
                | 3 -> if Client.exists c p then Client.delete_exn c p
                | 4 -> if Client.exists c p then Client.truncate_exn c p ~size:100
                | _ -> if Client.exists c p then Client.fsync_exn c p
              with
              | Namespace.Not_found_path _ | Namespace.Already_exists _ -> ())
            ops;
          Client.sync_exn c;
          if Cache.dirty_count fs.Fsys.cache <> 0 then ok := false;
          if Cache.nvram_used fs.Fsys.cache <> 0 then ok := false);
      !ok)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_stack_invariants ]

let suite =
  [
    Alcotest.test_case "client with nvram stack" `Quick
      test_client_with_nvram_stack;
    Alcotest.test_case "coda trace replay" `Quick test_coda_trace_replay;
    Alcotest.test_case "pfs and patsy agree" `Quick
      test_pfs_and_patsy_agree_on_state;
  ]
  @ qsuite
