(* Tests for the Patsy instantiation: time synthesis, replay, the
   multiplexed volumes and the write-policy experiment harness. *)

module Sched = Capfs_sched.Sched
module Record = Capfs_trace.Record
module Synth = Capfs_trace.Synth
module Replay = Capfs_patsy.Replay
module Experiment = Capfs_patsy.Experiment
module Report = Capfs_patsy.Report
module Multiplex = Capfs_layout.Multiplex
module Layout = Capfs_layout.Layout
module Inode = Capfs_layout.Inode
module Lfs = Capfs_layout.Lfs
module Driver = Capfs_disk.Driver
module Data = Capfs_disk.Data

(* The Layout record is result-typed now; tests treat failure as fatal. *)
let ok = Capfs_core.Errno.ok_exn
let alloc_inode l ~kind = ok (l.Layout.alloc_inode ~kind)
let get_inode l ino = ok (l.Layout.get_inode ino)
let write_blocks l ups = ok (l.Layout.write_blocks ups)
let read_block l f i = ok (l.Layout.read_block f i)
let truncate_l l f ~blocks = ok (l.Layout.truncate f ~blocks)
let adopt_l l f ~blocks = ok (l.Layout.adopt f ~blocks)
let free_inode l ino = ok (l.Layout.free_inode ino)
let sync_l l = ok (l.Layout.sync ())

(* a fast config for tests: tiny cache, 2 disks, 1 bus *)
let test_config policy =
  {
    (Experiment.default policy) with
    Experiment.ndisks = 2;
    nbuses = 1;
    cache_mb = 4;
    nvram_mb = 1;
    seed = 7;
  }

let small_trace ?(seed = 3) ?(duration = 120.) () =
  Synth.generate ~seed ~duration
    { Synth.sprite_1a with Synth.clients = 4; files = 60; dirs = 4 }

(* Time synthesis *)

let test_synthesize_times_equidistant () =
  let mk time op = { Record.time; client = 1; op } in
  let path = "/f" in
  let records =
    [|
      mk 10. (Record.Open { path; mode = Record.Write_only });
      mk Record.no_time (Record.Write { path; offset = 0; bytes = 100 });
      mk Record.no_time (Record.Write { path; offset = 100; bytes = 100 });
      mk Record.no_time (Record.Write { path; offset = 200; bytes = 100 });
      mk 14. (Record.Close { path });
    |]
  in
  (match Replay.synthesize_times records with
  | [| _; w1; w2; w3; _ |] ->
    Alcotest.(check (float 1e-9)) "w1" 11. w1.Record.time;
    Alcotest.(check (float 1e-9)) "w2" 12. w2.Record.time;
    Alcotest.(check (float 1e-9)) "w3" 13. w3.Record.time
  | _ -> Alcotest.fail "record count changed");
  (* the input array — possibly shared across domains — is untouched *)
  Alcotest.(check bool) "input not mutated" false (Record.has_time records.(1))

let test_synthesize_times_leftovers_inherit () =
  let mk time op = { Record.time; client = 1; op } in
  let records =
    [|
      mk 5. (Record.Stat { path = "/x" });
      mk Record.no_time (Record.Truncate { path = "/y"; size = 0 });
      mk 9. (Record.Stat { path = "/z" });
    |]
  in
  match Replay.synthesize_times records with
  | [| _; t; _ |] -> Alcotest.(check (float 1e-9)) "inherits prev" 5. t.Record.time
  | _ -> Alcotest.fail "record count changed"

let test_synthesize_preserves_order_and_count () =
  let records = small_trace () in
  let out = Replay.synthesize_times records in
  Alcotest.(check int) "count" (Array.length records) (Array.length out);
  Array.iter
    (fun r ->
      if not (Record.has_time r) then
        Alcotest.failf "record still untimed: %a" Record.pp r)
    out

(* Replay over a full simulated instance *)

let run_replay ?(config = test_config Experiment.Ups) trace =
  Experiment.run config ~trace:(Capfs_trace.Source.of_array trace)

let test_replay_executes_all_operations () =
  let trace = small_trace () in
  let o = run_replay trace in
  Alcotest.(check int) "every record dispatched" (Array.length trace)
    o.Experiment.replay.Replay.operations;
  if o.Experiment.replay.Replay.errors * 10 > Array.length trace then
    Alcotest.failf "too many errors: %d of %d"
      o.Experiment.replay.Replay.errors (Array.length trace)

let test_replay_takes_trace_time () =
  let trace = small_trace ~duration:120. () in
  let o = run_replay trace in
  let elapsed = o.Experiment.replay.Replay.elapsed in
  if elapsed < 30. || elapsed > 600. then
    Alcotest.failf "simulated span %.1f implausible for a 120 s trace" elapsed

let test_replay_deterministic () =
  let trace = small_trace () in
  let o1 = run_replay trace and o2 = run_replay trace in
  Alcotest.(check int) "ops" o1.Experiment.replay.Replay.operations
    o2.Experiment.replay.Replay.operations;
  Alcotest.(check (float 1e-12)) "identical mean latency"
    (Capfs_stats.Sample_set.mean o1.Experiment.replay.Replay.latency)
    (Capfs_stats.Sample_set.mean o2.Experiment.replay.Replay.latency);
  Alcotest.(check int) "identical flush traffic" o1.Experiment.blocks_flushed
    o2.Experiment.blocks_flushed

let test_replay_windows_cover_run () =
  let trace = small_trace ~duration:120. () in
  let o =
    Experiment.run (test_config Experiment.Ups)
      ~trace:(Capfs_trace.Source.of_array trace)
  in
  let windows =
    Capfs_stats.Interval.windows o.Experiment.replay.Replay.windows
  in
  (* 120 s at a 900 s window: one window *)
  Alcotest.(check int) "one window" 1 (List.length windows);
  let total =
    List.fold_left
      (fun n w -> n + Capfs_stats.Welford.count w.Capfs_stats.Interval.summary)
      0 windows
  in
  Alcotest.(check int) "all ops in windows"
    o.Experiment.replay.Replay.operations total

(* Policy behaviour on the shared trace *)

let test_ups_writes_less_than_write_delay () =
  let trace = small_trace ~duration:240. () in
  let src = Capfs_trace.Source.of_array trace in
  let wd = Experiment.run (test_config Experiment.Write_delay) ~trace:src in
  let ups = Experiment.run (test_config Experiment.Ups) ~trace:src in
  if ups.Experiment.blocks_flushed >= wd.Experiment.blocks_flushed then
    Alcotest.failf "write saving failed: ups flushed %d, write-delay %d"
      ups.Experiment.blocks_flushed wd.Experiment.blocks_flushed;
  if ups.Experiment.writes_absorbed <= wd.Experiment.writes_absorbed then
    Alcotest.failf "ups should absorb more (%d vs %d)"
      ups.Experiment.writes_absorbed wd.Experiment.writes_absorbed

let test_nvram_bounds_dirty_data () =
  let trace = small_trace ~duration:240. () in
  let o =
    Experiment.run (test_config Experiment.Nvram_whole)
      ~trace:(Capfs_trace.Source.of_array trace)
  in
  (* 1 MB NVRAM = 256 blocks: the nvram_used stat must never exceed it *)
  match Capfs_stats.Registry.find o.Experiment.registry "cache.nvram_used" with
  | Some st ->
    if Capfs_stats.Welford.max (Capfs_stats.Stat.welford st) > 256. then
      Alcotest.fail "NVRAM budget exceeded"
  | None -> Alcotest.fail "nvram_used stat missing"

let test_all_policies_complete () =
  let trace = small_trace ~duration:60. () in
  List.iter
    (fun policy ->
      let o =
        Experiment.run (test_config policy)
          ~trace:(Capfs_trace.Source.of_array trace)
      in
      Alcotest.(check int)
        (Experiment.policy_name policy ^ " completes")
        (Array.length trace)
        o.Experiment.replay.Replay.operations)
    Experiment.all_policies

(* Multiplex *)

let test_multiplex_routes_by_ino () =
  let s = Sched.create ~clock:`Virtual () in
  ignore
    (Sched.spawn s (fun () ->
         let vol v =
           let drv =
             Driver.create s
               (Driver.mem_transport ~sector_bytes:512 ~total_sectors:8192 s ())
           in
           Lfs.format_and_mount
             ~config:
               {
                 Lfs.default_config with
                 Lfs.seg_blocks = 16;
                 checkpoint_blocks = 8;
                 first_ino = v + 1;
                 ino_stride = 2;
               }
             s drv ~block_bytes:4096
         in
         let volumes = [| vol 0; vol 1 |] in
         let m = Multiplex.layout volumes in
         let a = alloc_inode m ~kind:Inode.Regular in
         let b = alloc_inode m ~kind:Inode.Regular in
         (* round-robin: volume 0 mints odd inos (1,3,..), volume 1 even *)
         Alcotest.(check int) "first ino" 1 a.Inode.ino;
         Alcotest.(check int) "second ino" 2 b.Inode.ino;
         write_blocks m
           [ (a.Inode.ino, 0, Data.of_string (String.make 4096 'a'));
             (b.Inode.ino, 0, Data.of_string (String.make 4096 'b')) ];
         Alcotest.(check string) "a data" (String.make 4096 'a')
           (Data.to_string (read_block m a 0));
         Alcotest.(check string) "b data" (String.make 4096 'b')
           (Data.to_string (read_block m b 0));
         (* each volume holds exactly its own file *)
         Alcotest.(check bool) "a on vol0" true
           (get_inode volumes.(0) 1 <> None);
         Alcotest.(check bool) "a not on vol1" true
           (get_inode volumes.(1) 1 = None)));
  Sched.run s

(* Report plumbing *)

let test_report_cdf_is_monotone () =
  let trace = small_trace () in
  let o = run_replay trace in
  let series = Report.cdf_series o.Experiment.replay in
  let rec check = function
    | (v1, q1) :: ((v2, q2) :: _ as rest) ->
      if v2 < v1 -. 1e-12 || q2 < q1 -. 1e-12 then
        Alcotest.fail "CDF must be monotone";
      check rest
    | _ -> ()
  in
  check series;
  (match List.rev series with
  | (_, q_last) :: _ -> Alcotest.(check (float 1e-9)) "ends at 1" 1. q_last
  | [] -> Alcotest.fail "empty series");
  let cache_frac, rot_frac = Report.boundary_fractions o.Experiment.replay in
  if cache_frac > rot_frac +. 1e-12 then
    Alcotest.fail "2ms fraction cannot exceed 17ms fraction"

let test_adopted_files_cost_disk_reads () =
  (* a trace that only reads a pre-existing file: the first read must
     pay disk time (synthesized blocks are on disk, not in cache) *)
  let mk time op = { Record.time; client = 1; op } in
  let trace =
    [|
      mk 0.1 (Record.Open { path = "/d0/old"; mode = Record.Read_only });
      mk Record.no_time (Record.Read { path = "/d0/old"; offset = 0; bytes = 8192 });
      mk 0.5 (Record.Close { path = "/d0/old" });
    |]
  in
  let o = run_replay trace in
  Alcotest.(check int) "no errors" 0 o.Experiment.replay.Replay.errors;
  let misses =
    match Capfs_stats.Registry.find o.Experiment.registry "cache.misses" with
    | Some st -> Capfs_stats.Stat.count st
    | None -> 0
  in
  if misses = 0 then Alcotest.fail "pre-existing file should miss the cache"

let test_clean_trace_replays_without_errors () =
  (* a well-formed trace — every path created before use — must replay
     with zero errors and an empty per-kind breakdown *)
  let mk time op = { Record.time; client = 1; op } in
  let path = "/d0/fresh" in
  let trace =
    [|
      mk 0.1 (Record.Open { path; mode = Record.Write_only });
      mk Record.no_time (Record.Write { path; offset = 0; bytes = 4096 });
      mk Record.no_time (Record.Write { path; offset = 4096; bytes = 4096 });
      mk 0.5 (Record.Close { path });
      mk 0.6 (Record.Open { path; mode = Record.Read_only });
      mk Record.no_time (Record.Read { path; offset = 0; bytes = 8192 });
      mk 0.9 (Record.Close { path });
      mk 1.0 (Record.Stat { path });
      mk 1.1 (Record.Delete { path });
    |]
  in
  let o = run_replay trace in
  Alcotest.(check int) "zero errors" 0 o.Experiment.replay.Replay.errors;
  Alcotest.(check (list (pair string int))) "no error kinds" []
    o.Experiment.replay.Replay.errors_by_kind

let test_errors_by_kind_sums_to_errors () =
  let o = run_replay (small_trace ()) in
  let total =
    List.fold_left
      (fun n (_, c) -> n + c)
      0 o.Experiment.replay.Replay.errors_by_kind
  in
  Alcotest.(check int) "kinds account for every error"
    o.Experiment.replay.Replay.errors total;
  List.iter
    (fun (kind, c) ->
      if c <= 0 then Alcotest.failf "kind %s reported with count %d" kind c)
    o.Experiment.replay.Replay.errors_by_kind

(* Fleet: the parallel experiment runner *)

module Fleet = Capfs_patsy.Fleet

let fleet_pairs =
  [
    ("sprite-1a", Experiment.Ups);
    ("sprite-1a", Experiment.Write_delay);
    ("sprite-1b", Experiment.Ups);
    ("sprite-1b", Experiment.Nvram_whole);
  ]

let fleet_gen name =
  Capfs_trace.Source.of_array ~name
    (Synth.generate ~seed:3 ~duration:90.
       { (Synth.profile_by_name name) with Synth.clients = 3; files = 40; dirs = 4 })

let test_fleet_parallel_matches_sequential () =
  (* same seeds => byte-identical figures regardless of the domain count *)
  let run jobs =
    Fleet.run_matrix ~jobs ~config:test_config ~gen:fleet_gen fleet_pairs
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "result count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Fleet.job_result) (b : Fleet.job_result) ->
      Alcotest.(check string) "deterministic ordering" a.Fleet.job.Fleet.label
        b.Fleet.job.Fleet.label;
      let oa = Fleet.outcome_exn a and ob = Fleet.outcome_exn b in
      Alcotest.(check int)
        (a.Fleet.job.Fleet.label ^ " ops")
        oa.Experiment.replay.Replay.operations
        ob.Experiment.replay.Replay.operations;
      Alcotest.(check (float 0.))
        (a.Fleet.job.Fleet.label ^ " mean latency")
        (Capfs_stats.Sample_set.mean oa.Experiment.replay.Replay.latency)
        (Capfs_stats.Sample_set.mean ob.Experiment.replay.Replay.latency);
      Alcotest.(check int)
        (a.Fleet.job.Fleet.label ^ " flushed")
        oa.Experiment.blocks_flushed ob.Experiment.blocks_flushed;
      Alcotest.(check int)
        (a.Fleet.job.Fleet.label ^ " absorbed")
        oa.Experiment.writes_absorbed ob.Experiment.writes_absorbed)
    seq par

let test_fleet_crash_does_not_wedge_pool () =
  (* one poisoned job (ndisks = 0 -> invalid_arg inside the worker):
     the pool must complete every other job and report the failure *)
  let good policy = test_config policy in
  let bad = { (test_config Experiment.Ups) with Experiment.ndisks = 0 } in
  let jobs_list =
    [
      { Fleet.label = "ok-1"; trace = "sprite-1a"; config = good Experiment.Ups };
      { Fleet.label = "boom"; trace = "sprite-1a"; config = bad };
      { Fleet.label = "ok-2"; trace = "sprite-1a";
        config = good Experiment.Write_delay };
    ]
  in
  let results = Fleet.run_jobs ~jobs:2 ~gen:fleet_gen jobs_list in
  Alcotest.(check int) "all jobs reported" 3 (List.length results);
  (match Fleet.failures results with
  | [ (job, Fleet.Crashed (Invalid_argument _)) ] ->
    Alcotest.(check string) "failed job" "boom" job.Fleet.label
  | fs -> Alcotest.failf "expected 1 crashed failure, got %d" (List.length fs));
  List.iter
    (fun (r : Fleet.job_result) ->
      if r.Fleet.job.Fleet.label <> "boom" then
        match r.Fleet.result with
        | Ok o ->
          if o.Experiment.replay.Replay.operations = 0 then
            Alcotest.failf "%s replayed nothing" r.Fleet.job.Fleet.label
        | Error e ->
          Alcotest.failf "%s should have succeeded: %s" r.Fleet.job.Fleet.label
            (Format.asprintf "%a" Fleet.pp_failure e))
    results

let test_fleet_gen_failure_is_an_error () =
  let gen name =
    if name = "no-such-trace" then failwith "cannot generate" else fleet_gen name
  in
  let results =
    Fleet.run_jobs ~jobs:2 ~gen
      [
        { Fleet.label = "missing"; trace = "no-such-trace";
          config = test_config Experiment.Ups };
        { Fleet.label = "fine"; trace = "sprite-1a";
          config = test_config Experiment.Ups };
      ]
  in
  (match (List.nth results 0).Fleet.result with
  | Error (Fleet.Crashed (Failure _)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "gen failure must surface as Error");
  match (List.nth results 1).Fleet.result with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "good job failed: %s"
      (Format.asprintf "%a" Fleet.pp_failure e)

(* {2 One engine, two sources}

   [Replay.run] over a cursor-backed source must produce the same
   result as over an array of the same records — same synthesized
   times, same fibre spawn order, same interleaving, same stats. The
   synthetic profiles leave I/O times unrecorded, so these traces
   exercise the synthesizer's holdback, not just pass-through. *)

module Source = Capfs_trace.Source

(* wrap an array as a cursor-backed source: forces the streaming path *)
let streamed_of records =
  Source.of_fn ~name:"streamed" (fun () ->
      let i = ref 0 in
      fun () ->
        if !i >= Array.length records then None
        else begin
          let r = records.(!i) in
          incr i;
          Some r
        end)

let outcome_fingerprint (o : Experiment.outcome) =
  Printf.sprintf "ops=%d errs=%d skip=%d elapsed=%.9f lat_n=%d lat_mean=%.12g flushed=%d absorbed=%d hit=%.12g"
    o.Experiment.replay.Replay.operations
    o.Experiment.replay.Replay.errors
    o.Experiment.replay.Replay.skipped_ops
    o.Experiment.replay.Replay.elapsed
    (Capfs_stats.Sample_set.count o.Experiment.replay.Replay.latency)
    (Capfs_stats.Sample_set.mean o.Experiment.replay.Replay.latency)
    o.Experiment.blocks_flushed
    o.Experiment.writes_absorbed
    o.Experiment.cache_hit_rate

let test_streamed_replay_equals_array () =
  let records = small_trace ~duration:180. () in
  let arr = Experiment.run (test_config Experiment.Ups)
      ~trace:(Source.of_array records) in
  let strm = Experiment.run (test_config Experiment.Ups)
      ~trace:(streamed_of records) in
  Alcotest.(check string) "identical outcome"
    (outcome_fingerprint arr) (outcome_fingerprint strm)

(* [Replay.run ~serial:true] of [trace] on a fresh UPS instance *)
let serial_replay trace =
  let sched = Sched.create ~seed:5 ~clock:`Virtual () in
  let out = ref None in
  ignore
    (Sched.spawn sched (fun () ->
         let farm = Experiment.build_farm sched (test_config Experiment.Ups) in
         let client =
           Capfs.Stack.mount farm.Experiment.f_stack Capfs.Stack.Format
         in
         out :=
           Some (Replay.run ~serial:true client trace)));
  Sched.run sched;
  Option.get !out

let test_streamed_serial_replay_equals_array () =
  (* serial mode is what diffval runs: strict trace order either way *)
  let records = small_trace ~duration:120. () in
  let a = serial_replay (Source.of_array records) in
  let b = serial_replay (streamed_of records) in
  Alcotest.(check int) "ops" a.Replay.operations b.Replay.operations;
  Alcotest.(check int) "errors" a.Replay.errors b.Replay.errors;
  Alcotest.(check (float 0.)) "elapsed" a.Replay.elapsed b.Replay.elapsed;
  Alcotest.(check (float 0.)) "mean latency"
    (Capfs_stats.Sample_set.mean a.Replay.latency)
    (Capfs_stats.Sample_set.mean b.Replay.latency)

(* The replay create race: client 1's stat of /d/f synthesizes /d/f and
   its parent /d, so client 0's mkdir /d at the same instant finds the
   directory there. That is a trace artifact, not an error; a mkdir
   that finds a file still is. *)
let test_replay_mkdir_of_synthesized_dir () =
  let at client op = { Record.time = 0.; client; op } in
  let check what records ~errors ~skipped =
    let r = serial_replay (Source.of_array records) in
    Alcotest.(check int) (what ^ ": errors") errors r.Replay.errors;
    Alcotest.(check int) (what ^ ": skipped") skipped r.Replay.skipped_ops;
    Alcotest.(check (list (pair string int)))
      (what ^ ": error kinds")
      (if errors = 0 then [] else [ ("eexist", errors) ])
      r.Replay.errors_by_kind
  in
  check "mkdir of a synthesized directory"
    [|
      at 1 (Record.Stat { path = "/d/f" }); at 0 (Record.Mkdir { path = "/d" });
    |]
    ~errors:0 ~skipped:1;
  check "mkdir over a synthesized file"
    [|
      at 1 (Record.Stat { path = "/f" }); at 0 (Record.Mkdir { path = "/f" });
    |]
    ~errors:1 ~skipped:0

(* File-streaming round trips: save a trace, then replay it three ways —
   materialized load, line-streamed — and demand identical outcomes. *)

let with_temp_trace save records f =
  let path = Filename.temp_file "capfs_stream_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      save path records;
      f path)

let test_sprite_file_stream_equals_load () =
  let records = small_trace ~duration:120. () in
  with_temp_trace Capfs_trace.Sprite_format.save records (fun path ->
      let loaded = Capfs_trace.Sprite_format.load path in
      let arr = Experiment.run (test_config Experiment.Write_delay)
          ~trace:(Source.of_array loaded) in
      let strm = Experiment.run (test_config Experiment.Write_delay)
          ~trace:(Source.sprite_file path) in
      Alcotest.(check string) "identical outcome"
        (outcome_fingerprint arr) (outcome_fingerprint strm))

let test_coda_file_stream_equals_load () =
  let records = small_trace ~duration:120. () in
  with_temp_trace Capfs_trace.Coda_format.save records (fun path ->
      let loaded = Capfs_trace.Coda_format.load path in
      let arr = Experiment.run (test_config Experiment.Ups)
          ~trace:(Source.of_array loaded) in
      let strm = Experiment.run (test_config Experiment.Ups)
          ~trace:(Source.coda_file path) in
      Alcotest.(check string) "identical outcome"
        (outcome_fingerprint arr) (outcome_fingerprint strm))

let test_source_helpers () =
  let records = small_trace ~duration:60. () in
  let s = streamed_of records in
  Alcotest.(check int) "length drains a pass" (Array.length records)
    (Source.length s);
  Alcotest.(check bool) "cursor-backed has no array" true
    (Source.as_array s = None);
  let drained = Source.to_array s in
  Alcotest.(check int) "to_array drains all" (Array.length records)
    (Array.length drained);
  Array.iteri
    (fun i r -> if r != records.(i) then Alcotest.fail "record identity") 
    drained;
  let lazy_forced = ref false in
  let ls =
    Source.of_lazy (lazy (lazy_forced := true; records))
  in
  Alcotest.(check bool) "lazy not forced yet" false !lazy_forced;
  ignore (Source.as_array ls);
  Alcotest.(check bool) "as_array forces" true !lazy_forced

(* {2 The time synthesizer against a reference model}

   Time synthesis as a whole-array computation, kept as an executable
   specification. One pass notes each (client, path) session's open
   time and its untimed reads, writes and truncates; a timed close
   spreads those equidistantly between open and close, and a re-open
   forgets them. A last pass gives every record still untimed the time
   of the record before it. *)
let reference_synthesize_times records =
  let times = Array.map (fun r -> r.Record.time) records in
  let sessions : (int * string, float * int list) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun i r ->
      let key = (r.Record.client, Record.path r) in
      match r.Record.op with
      | Record.Open _ when Record.has_time r ->
        Hashtbl.replace sessions key (r.Record.time, [])
      | (Record.Read _ | Record.Write _ | Record.Truncate _)
        when not (Record.has_time r) -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, pending) ->
          Hashtbl.replace sessions key (t_open, i :: pending)
        | None -> ())
      | Record.Close _ when Record.has_time r -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, pending) ->
          let pending = List.rev pending in
          let n = List.length pending in
          List.iteri
            (fun j idx ->
              times.(idx) <-
                t_open
                +. ((r.Record.time -. t_open) *. float_of_int (j + 1)
                    /. float_of_int (n + 1)))
            pending;
          Hashtbl.remove sessions key
        | None -> ())
      | _ -> ())
    records;
  let last = ref 0. in
  Array.iteri
    (fun i t -> if t < 0. then times.(i) <- !last else last := t)
    times;
  Array.mapi (fun i r -> { r with Record.time = times.(i) }) records

(* Random multi-client traces over a few paths: opens, reads, writes,
   truncates and closes, each timed or not, so they hold re-opens of an
   open session, untimed I/O outside any session, closes with no open
   and leading untimed records. Timed records advance a clock by random
   gaps. Up to 300 records, so sessions outlast the synthesizer's
   initial ring. *)
let gen_trace =
  let open QCheck.Gen in
  let op =
    let* path = map (Printf.sprintf "/f%d") (int_range 0 2) in
    let* offset = int_range 0 4 in
    frequencyl
      [
        (3, Record.Open { path; mode = Record.Read_write });
        (4, Record.Read { path; offset; bytes = 512 });
        (4, Record.Write { path; offset; bytes = 512 });
        (1, Record.Truncate { path; size = offset });
        (3, Record.Close { path });
        (1, Record.Stat { path });
      ]
  in
  let step =
    triple (int_range 0 2) op
      (frequency [ (1, return None); (1, map Option.some (float_range 0. 3.)) ])
  in
  let+ steps = list_size (int_range 0 300) step in
  let clock = ref 0. in
  Array.of_list
    (List.map
       (fun (client, op, gap) ->
         let time =
           match gap with
           | None -> Record.no_time
           | Some g ->
             clock := !clock +. g;
             !clock
         in
         { Record.time; client; op })
       steps)

let print_trace records =
  String.concat "\n"
    (Array.to_list (Array.map (Format.asprintf "%a" Record.pp) records))

let same_record a b =
  a.Record.client = b.Record.client
  && a.Record.op = b.Record.op
  && Int64.equal
       (Int64.bits_of_float a.Record.time)
       (Int64.bits_of_float b.Record.time)

let prop_synthesizer_matches_reference =
  QCheck.Test.make ~name:"synthesizer matches oracle" ~count:300
    (QCheck.make ~print:print_trace gen_trace)
    (fun records ->
      let got = Replay.synthesize_times records in
      let want = reference_synthesize_times records in
      Array.length got = Array.length want && Array.for_all2 same_record got want)

(* A replay of a trace file leaves no descriptor open: the counting pass
   and the replay pass both reach the end of the file, where its cursor
   closes it. The concurrent fibres stop after their counted records,
   short of that end, so the engine must pull on to it. *)
let test_file_replay_closes_descriptors () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    let records = small_trace ~duration:60. () in
    with_temp_trace Capfs_trace.Sprite_format.save records (fun path ->
        let before = open_fds () in
        for _ = 1 to 3 do
          ignore
            (Experiment.run (test_config Experiment.Ups)
               ~trace:(Source.sprite_file path))
        done;
        Alcotest.(check int) "descriptors after three replays" before
          (open_fds ()))
  end

(* A line that fails to parse ends the pass: its error reaches the
   caller and the file is closed, not left open for the GC. *)
let test_file_replay_closes_on_parse_error () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    let records = Array.sub (small_trace ~duration:60. ()) 0 2 in
    let save path records =
      Capfs_trace.Sprite_format.save path records;
      Out_channel.with_open_gen [ Open_append; Open_text ] 0o644 path
        (fun oc -> output_string oc "not a trace record\n")
    in
    with_temp_trace save records (fun path ->
        let before = open_fds () in
        for _ = 1 to 3 do
          match
            Experiment.run (test_config Experiment.Ups)
              ~trace:(Source.sprite_file path)
          with
          | _ -> Alcotest.fail "a malformed line replayed"
          | exception Capfs_trace.Sprite_format.Parse_error (3, _) -> ()
        done;
        Alcotest.(check int) "descriptors after three failed replays" before
          (open_fds ()))
  end

let suite =
  [
    Alcotest.test_case "synthesize equidistant" `Quick
      test_synthesize_times_equidistant;
    Alcotest.test_case "synthesize leftovers" `Quick
      test_synthesize_times_leftovers_inherit;
    Alcotest.test_case "synthesize preserves order" `Quick
      test_synthesize_preserves_order_and_count;
    Alcotest.test_case "replay executes all" `Quick
      test_replay_executes_all_operations;
    Alcotest.test_case "replay takes trace time" `Quick
      test_replay_takes_trace_time;
    Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "streamed replay equals array" `Quick
      test_streamed_replay_equals_array;
    Alcotest.test_case "streamed serial equals array" `Quick
      test_streamed_serial_replay_equals_array;
    Alcotest.test_case "replay: mkdir of a synthesized dir" `Quick
      test_replay_mkdir_of_synthesized_dir;
    Alcotest.test_case "sprite file stream equals load" `Quick
      test_sprite_file_stream_equals_load;
    Alcotest.test_case "coda file stream equals load" `Quick
      test_coda_file_stream_equals_load;
    Alcotest.test_case "source helpers" `Quick test_source_helpers;
    Alcotest.test_case "replay windows" `Quick test_replay_windows_cover_run;
    Alcotest.test_case "ups writes less" `Quick
      test_ups_writes_less_than_write_delay;
    Alcotest.test_case "nvram bounded" `Quick test_nvram_bounds_dirty_data;
    Alcotest.test_case "all policies complete" `Quick
      test_all_policies_complete;
    Alcotest.test_case "multiplex routes by ino" `Quick
      test_multiplex_routes_by_ino;
    Alcotest.test_case "report cdf monotone" `Quick test_report_cdf_is_monotone;
    Alcotest.test_case "clean trace zero errors" `Quick
      test_clean_trace_replays_without_errors;
    Alcotest.test_case "errors_by_kind sums" `Quick
      test_errors_by_kind_sums_to_errors;
    Alcotest.test_case "adopted files cost reads" `Quick
      test_adopted_files_cost_disk_reads;
    Alcotest.test_case "fleet parallel == sequential" `Quick
      test_fleet_parallel_matches_sequential;
    Alcotest.test_case "fleet crash does not wedge" `Quick
      test_fleet_crash_does_not_wedge_pool;
    Alcotest.test_case "fleet gen failure is Error" `Quick
      test_fleet_gen_failure_is_an_error;
    Alcotest.test_case "file replay closes its descriptors" `Quick
      test_file_replay_closes_descriptors;
    Alcotest.test_case "file replay closes on a parse error" `Quick
      test_file_replay_closes_on_parse_error;
    QCheck_alcotest.to_alcotest prop_synthesizer_matches_reference;
  ]
