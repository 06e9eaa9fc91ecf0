(* The benchmark harness: regenerates every figure of the paper's
   evaluation (§5.1, Figures 2-5), the §5.2 lesson ablations, the design-
   choice ablations called out in DESIGN.md, and a set of Bechamel
   micro-benchmarks of the framework's hot paths.

   Usage: dune exec bench/main.exe
            [-- [quick|full|figures|ablations|micro|perfsmoke] [-j N]]

   The default preset replays 900 simulated seconds per (trace, policy)
   pair; `quick` cuts that to 300 s, `full` raises it to 3600 s. Figure
   CDFs and the Figure-5 table come from one shared set of runs.

   Independent experiments fan out over a Fleet of OCaml 5 domains
   (-j N, default Domain.recommended_domain_count); every experiment
   builds its own virtual-time scheduler, disks, cache and statistics
   registry, so the figures are identical at any -j. A machine-readable
   BENCH_results.json (per-experiment wall-clock, replayed ops/s, mean
   latency, cache hit rate, and GC counters: minor/promoted words per
   replayed operation) is written next to the working directory so the
   perf trajectory of successive PRs can be tracked. The `perfsmoke`
   preset replays just sprite-1a — a fast CI guard against gross
   (5x-style) throughput regressions. *)

module Experiment = Capfs_patsy.Experiment
module Fleet = Capfs_patsy.Fleet
module Replay = Capfs_patsy.Replay
module Report = Capfs_patsy.Report
module Synth = Capfs_trace.Synth
module Stats = Capfs_stats
module Lfs = Capfs_layout.Lfs

let section title = Format.printf "@.=== %s@.@." title

(* {1 Experiment configuration} *)

(* Scaled-down Sprite server (see DESIGN.md §3 and EXPERIMENTS.md): the
   synthetic traces carry roughly 1/5 the client population of the
   original, so the server shrinks with them — 2 of the hot disks on one
   SCSI string and a cache sized to keep the miss rate in the regime the
   paper reports. *)
(* Set by -trace-out: per-experiment event ring capacity (0 = off). *)
let trace_buffer = ref 0

(* Cleared by -no-coalesce: run the unbatched pre-clustering flush path
   (the configuration the paper-comparison tables in EXPERIMENTS.md are
   pinned to). *)
let coalesce = ref true

let experiment_config ?(policy = Experiment.Ups) () =
  {
    (Experiment.default policy) with
    Experiment.ndisks = 2;
    nbuses = 1;
    cache_mb = 24;
    nvram_mb = 4;
    trace_buffer = !trace_buffer;
    coalesce = !coalesce;
  }

(* Restricted by -traces T1,T2 — the CI smoke gate runs two traces. *)
let trace_names =
  ref [ "sprite-1a"; "sprite-1b"; "sprite-2a"; "sprite-2b"; "sprite-5" ]

(* Traces are generated inside the worker domain that replays them (the
   Fleet [gen] callback) — no cross-domain PRNG or cache sharing. *)
let gen_trace ~duration name =
  Synth.source ~seed:1996 ~duration (Synth.profile_by_name name)

(* Every Fleet result is also logged here for BENCH_results.json. *)
let results_log : Fleet.job_result list ref = ref []

let run_fleet ~jobs ~duration job_list =
  let results = Fleet.run_jobs ~jobs ~gen:(gen_trace ~duration) job_list in
  results_log := !results_log @ results;
  results

(* {1 Figures}

   One run per (trace, policy), shared by Figures 2-5. The runs fan out
   over the Fleet; the per-run result map replaces the global mutable
   caches the sequential harness used, so the harness itself is safe
   under -j. *)

type matrix = {
  lookup : string -> Experiment.policy -> Experiment.outcome;
  wall_sum : float;   (** summed per-experiment wall-clock *)
  wall_real : float;  (** elapsed wall-clock for the whole matrix *)
}

let run_matrix ~jobs ~duration =
  let pairs =
    List.concat_map
      (fun trace -> List.map (fun p -> (trace, p)) Experiment.all_policies)
      !trace_names
  in
  let t0 = Unix.gettimeofday () in
  let results =
    Fleet.run_matrix ~jobs
      ~config:(fun policy -> experiment_config ~policy ())
      ~gen:(gen_trace ~duration) pairs
  in
  let wall_real = Unix.gettimeofday () -. t0 in
  results_log := !results_log @ results;
  let table = Hashtbl.create 32 in
  List.iter
    (fun (r : Fleet.job_result) ->
      Hashtbl.replace table (r.Fleet.job.Fleet.trace, r.Fleet.job.Fleet.config.Experiment.policy)
        (Fleet.outcome_exn r))
    results;
  let lookup trace policy =
    match Hashtbl.find_opt table (trace, policy) with
    | Some o -> o
    | None -> failwith ("matrix: no outcome for " ^ Fleet.matrix_label ~trace policy)
  in
  let wall_sum =
    List.fold_left (fun acc (r : Fleet.job_result) -> acc +. r.Fleet.wall_s) 0. results
  in
  Format.printf
    "matrix: %d experiments in %.1f s wall (%.1f s of experiment time, \
     %.2fx parallel speedup at -j %d)@."
    (List.length results) wall_real wall_sum
    (if wall_real > 0. then wall_sum /. wall_real else 1.)
    jobs;
  { lookup; wall_sum; wall_real }

let figure_cdf ~matrix ~figure trace_name =
  section
    (Printf.sprintf
       "Figure %d: cumulative latency distribution, trace %s (paper: fig. %d)"
       figure trace_name figure);
  List.iter
    (fun policy ->
      let o = matrix.lookup trace_name policy in
      Report.print_cdf ~points:40
        ~title:(Printf.sprintf "%s / %s" trace_name (Experiment.policy_name policy))
        Format.std_formatter o.Experiment.replay;
      Format.printf "@.")
    Experiment.all_policies

let figure5 ~matrix =
  section "Figure 5: mean file-system latency, all traces x all policies";
  let rows =
    List.map
      (fun trace_name ->
        ( trace_name,
          List.map
            (fun policy ->
              let o = matrix.lookup trace_name policy in
              ( Experiment.policy_name policy,
                Stats.Sample_set.mean o.Experiment.replay.Replay.latency ))
            Experiment.all_policies ))
      !trace_names
  in
  Report.print_mean_table Format.std_formatter ~rows;
  Format.printf "@.@.write traffic (cache blocks flushed to the log):@.";
  let rows =
    List.map
      (fun trace_name ->
        ( trace_name,
          List.map
            (fun policy ->
              let o = matrix.lookup trace_name policy in
              ( Experiment.policy_name policy,
                float_of_int o.Experiment.blocks_flushed ))
            Experiment.all_policies ))
      !trace_names
  in
  Report.print_mean_table ~scale:1e-3 ~unit:"k" Format.std_formatter ~rows;
  Format.printf "@.@.cache hit rates and absorbed writes:@.";
  List.iter
    (fun trace_name ->
      Format.printf "%-12s" trace_name;
      List.iter
        (fun policy ->
          let o = matrix.lookup trace_name policy in
          Format.printf " %s=%.1f%%/%dk"
            (Experiment.policy_name policy)
            (100. *. o.Experiment.cache_hit_rate)
            (o.Experiment.writes_absorbed / 1000))
        Experiment.all_policies;
      Format.printf "@.")
    !trace_names

(* {1 Ablations}

   Each ablation is a small independent job list; the Experiment-backed
   ones ride the same Fleet. *)

let mean_of o = Stats.Sample_set.mean o.Experiment.replay.Replay.latency

(* run a named set of configs against one trace, in parallel *)
let ablate ~jobs ~duration ~trace variants =
  let job_list =
    List.map
      (fun (name, config) ->
        { Fleet.label = Printf.sprintf "ablation:%s:%s" trace name;
          trace; config })
      variants
  in
  let results = run_fleet ~jobs ~duration job_list in
  List.map2
    (fun (name, _) r -> (name, Fleet.outcome_exn r))
    variants results

let ablation_sync_flush ~duration =
  ignore duration;
  section
    "Ablation (5.2 lesson): synchronous vs asynchronous cache flushing";
  (* The paper: "the thread that needed a cache block was also the one
     that initiated a cache flush and waited for the flush to complete.
     As more esoteric flush policies were used, the delay for this
     thread increased" — here the policy is whole-file flushing of
     64-block files (2 ms of disk time per block). The synchronous
     allocator sits through the entire file's write-back; the
     asynchronous flusher releases frames chunk by chunk and the
     allocator continues as soon as one is free. *)
  List.iter
    (fun async ->
      let sched = Capfs_sched.Sched.create ~clock:`Virtual () in
      let lat = Stats.Welford.create () in
      let worst = ref 0. in
      ignore
        (Capfs_sched.Sched.spawn sched (fun () ->
             let writeback batch =
               Capfs_sched.Sched.sleep sched
                 (0.002 *. float_of_int (List.length batch))
             in
             let cache =
               Capfs_cache.Cache.create ~writeback sched
                 { Capfs_cache.Cache.block_bytes = 4096;
                   capacity_blocks = 80; nvram_blocks = 0;
                   trigger = Capfs_cache.Cache.Demand; scope = `Whole_file;
                   async_flush = async; mem_copy_rate = 0.;
                   coalesce = false; flush_window = 4;
                   max_extent_blocks = 64 }
             in
             for round = 0 to 19 do
               (* a 64-block file fills most of the cache with dirty data *)
               for blk = 0 to 63 do
                 Capfs_cache.Cache.write cache
                   (Capfs_cache.Block.Key.v round blk)
                   (Capfs_disk.Data.sim 16)
               done;
               (* now a small client needs frames *)
               for i = 0 to 19 do
                 let t0 = Capfs_sched.Sched.now sched in
                 Capfs_cache.Cache.write cache
                   (Capfs_cache.Block.Key.v (1000 + round) i)
                   (Capfs_disk.Data.sim 16);
                 let dt = Capfs_sched.Sched.now sched -. t0 in
                 Stats.Welford.add lat dt;
                 if dt > !worst then worst := dt
               done
             done));
      Capfs_sched.Sched.run sched;
      Format.printf "  %-12s small-client mean=%8.3fms worst=%8.3fms@."
        (if async then "async" else "sync")
        (1000. *. Stats.Welford.mean lat)
        (1000. *. !worst))
    [ false; true ]

let ablation_cleaner ~jobs ~duration =
  section "Ablation: LFS cleaner policy (greedy vs cost-benefit)";
  (* shrink the disks (~160 MB each) so the log wraps and cleaning runs *)
  let small_disk =
    { Capfs_disk.Disk_model.hp97560 with
      Capfs_disk.Disk_model.model_name = "hp97560/8";
      geometry =
        Capfs_disk.Geometry.v ~cylinders:245 ~heads:19 ~sectors_per_track:72
          ~sector_bytes:512 ~track_skew:8 ~cylinder_skew:18 () }
  in
  let variants =
    List.map
      (fun (name, cleaner) ->
        ( name,
          { (experiment_config ()) with
            Experiment.cleaner; cache_mb = 8; disk_model = small_disk } ))
      [ ("greedy", Lfs.Greedy); ("cost-benefit", Lfs.Cost_benefit) ]
  in
  List.iter
    (fun (name, o) ->
      let cleanings =
        List.filter (fun (k, _) -> Filename.check_suffix k "cleanings")
          o.Experiment.layout_stats
        |> List.fold_left (fun acc (_, v) -> acc +. v) 0.
      in
      Format.printf "  %-14s mean=%8.3fms cleanings=%.0f@." name
        (1000. *. mean_of o) cleanings)
    (ablate ~jobs ~duration ~trace:"sprite-1b" variants)

let ablation_iosched ~jobs ~duration =
  section "Ablation: disk-queue scheduling policy";
  let variants =
    List.map
      (fun iosched -> (iosched, { (experiment_config ()) with Experiment.iosched }))
      [ "fcfs"; "sstf"; "clook"; "scan-edf" ]
  in
  List.iter
    (fun (name, o) ->
      Format.printf "  %-10s mean=%8.3fms p99=%8.3fms@." name
        (1000. *. mean_of o)
        (1000.
         *. Stats.Sample_set.quantile o.Experiment.replay.Replay.latency 0.99))
    (ablate ~jobs ~duration ~trace:"sprite-5" variants)

let ablation_replacement ~jobs ~duration =
  section "Ablation: cache replacement policy";
  let variants =
    List.map
      (fun replacement ->
        (replacement, { (experiment_config ()) with Experiment.replacement; cache_mb = 8 }))
      [ "lru"; "random"; "lfu"; "slru"; "lru-2" ]
  in
  List.iter
    (fun (name, o) ->
      Format.printf "  %-8s mean=%8.3fms hit=%5.1f%%@." name
        (1000. *. mean_of o)
        (100. *. o.Experiment.cache_hit_rate))
    (ablate ~jobs ~duration ~trace:"sprite-1a" variants)

let ablation_disk_features ~jobs ~duration =
  section "Ablation: disk model features (read-ahead, immediate report)";
  let base = Capfs_disk.Disk_model.hp97560 in
  let variants =
    List.map
      (fun (name, cache) ->
        ( name,
          { (experiment_config ()) with
            Experiment.disk_model = { base with Capfs_disk.Disk_model.cache } } ))
      [
        ("full HP97560 cache", base.Capfs_disk.Disk_model.cache);
        ( "no read-ahead",
          { base.Capfs_disk.Disk_model.cache with
            Capfs_disk.Disk_model.read_ahead_bytes = 0 } );
        ( "no immediate report",
          { base.Capfs_disk.Disk_model.cache with
            Capfs_disk.Disk_model.immediate_report = false } );
        ( "no disk cache at all",
          { Capfs_disk.Disk_model.cache_bytes = 0; read_ahead_bytes = 0;
            immediate_report = false } );
      ]
  in
  List.iter
    (fun (name, o) ->
      Format.printf "  %-28s mean=%8.3fms@." name (1000. *. mean_of o))
    (ablate ~jobs ~duration ~trace:"sprite-1a" variants)

let ablation_cache_size ~jobs ~duration =
  section "Ablation: server cache size sweep (UPS policy)";
  let variants =
    List.map
      (fun cache_mb ->
        (Printf.sprintf "%d" cache_mb, { (experiment_config ()) with Experiment.cache_mb }))
      [ 4; 8; 16; 32; 64 ]
  in
  List.iter
    (fun (name, o) ->
      Format.printf "  %3s MB  mean=%8.3fms hit=%5.1f%%@." name
        (1000. *. mean_of o)
        (100. *. o.Experiment.cache_hit_rate))
    (ablate ~jobs ~duration ~trace:"sprite-1a" variants)

let ablation_nvram_size ~jobs ~duration =
  section "Ablation: NVRAM size sweep (whole-file drains, sprite-1b)";
  let variants =
    List.map
      (fun nvram_mb ->
        ( Printf.sprintf "%d" nvram_mb,
          { (experiment_config ~policy:Experiment.Nvram_whole ()) with
            Experiment.nvram_mb } ))
      [ 1; 2; 4; 8; 16 ]
  in
  List.iter
    (fun (name, o) ->
      Format.printf "  %3s MB  mean=%8.3fms flushed=%dk@." name
        (1000. *. mean_of o)
        (o.Experiment.blocks_flushed / 1000))
    (ablate ~jobs ~duration ~trace:"sprite-1b" variants)

(* {1 Bechamel micro-benchmarks}

   The paper found its simulator bottleneck in cache-list maintenance
   (§5.2); these keep the framework's hot paths honest. *)

let micro () =
  section "Microbenchmarks (Bechamel; monotonic clock)";
  let open Bechamel in
  let sched_bench =
    Test.make ~name:"sched: spawn+dispatch fibre"
      (Staged.stage (fun () ->
           let s = Capfs_sched.Sched.create ~clock:`Virtual () in
           ignore (Capfs_sched.Sched.spawn s (fun () -> ()));
           Capfs_sched.Sched.run s))
  in
  (* 512 clean blocks, read directly: a hit never suspends, and a
     clean hit takes the replacement policy's touch *)
  let cache_hit_bench =
    let s = Capfs_sched.Sched.create ~clock:`Virtual () in
    let cache = ref None in
    ignore
      (Capfs_sched.Sched.spawn s (fun () ->
           let c =
             Capfs_cache.Cache.create
               ~writeback:(fun _ -> ())
               s
               { (Capfs_cache.Cache.default_config ~capacity_blocks:1024) with
                 Capfs_cache.Cache.trigger = Capfs_cache.Cache.Demand }
           in
           for i = 0 to 511 do
             Capfs_cache.Cache.write c (Capfs_cache.Block.Key.v 1 i)
               (Capfs_disk.Data.sim 16)
           done;
           Capfs_cache.Cache.sync c;
           cache := Some c));
    Capfs_sched.Sched.run s;
    let c = Option.get !cache in
    assert (Capfs_cache.Cache.dirty_count c = 0);
    let fill _ = Capfs_disk.Data.sim 16 in
    let i = ref 0 in
    Test.make ~name:"cache: hit lookup + LRU touch"
      (Staged.stage (fun () ->
           incr i;
           ignore
             (Capfs_cache.Cache.read c
                (Capfs_cache.Block.Key.v 1 (!i land 511))
                ~fill)))
  in
  let lru_bench =
    let p = Capfs_cache.Replacement.lru () in
    let blocks =
      Array.init 1024 (fun i ->
          Capfs_cache.Block.make ~key:(Capfs_cache.Block.Key.v 1 i)
            ~data:(Capfs_disk.Data.sim 16) ~now:0.)
    in
    Array.iter (Capfs_cache.Replacement.insert p) blocks;
    let i = ref 0 in
    Test.make ~name:"replacement: lru access (move-to-front)"
      (Staged.stage (fun () ->
           incr i;
           Capfs_cache.Replacement.access p blocks.(!i mod 1024)))
  in
  let heap_bench =
    Test.make ~name:"heap: push+pop 64 timers"
      (Staged.stage (fun () ->
           let q = Capfs_sched.Heap.create () in
           for i = 0 to 63 do
             Capfs_sched.Heap.push q
               ~at:(float_of_int ((i * 37) mod 64))
               ~seq:i i
           done;
           while not (Capfs_sched.Heap.is_empty q) do
             ignore (Capfs_sched.Heap.pop q : int)
           done))
  in
  let geometry_bench =
    let g = Capfs_disk.Disk_model.hp97560.Capfs_disk.Disk_model.geometry in
    let i = ref 0 in
    Test.make ~name:"geometry: lba->chs with skew"
      (Staged.stage (fun () ->
           incr i;
           ignore (Capfs_disk.Geometry.pos_of_lba g (!i * 7919 mod 2000000))))
  in
  let seek_bench =
    let i = ref 0 in
    Test.make ~name:"seek: hp97560 curve"
      (Staged.stage (fun () ->
           incr i;
           ignore (Capfs_disk.Seek.time Capfs_disk.Seek.hp97560
                     ~distance:(!i mod 1961 + 1))))
  in
  let inode_bench =
    let inode =
      Capfs_layout.Inode.make ~ino:42 ~kind:Capfs_layout.Inode.Regular ~now:0.
    in
    for i = 0 to 31 do
      Capfs_layout.Inode.set_addr inode i (i * 100)
    done;
    Test.make ~name:"codec: inode serialize+parse"
      (Staged.stage (fun () ->
           let w = Capfs_layout.Codec.Writer.create ~capacity:4096 in
           Capfs_layout.Inode.serialize w inode ~indirect:[];
           ignore
             (Capfs_layout.Inode.deserialize ~block_bytes:4096
                (Capfs_layout.Codec.Writer.contents w))))
  in
  let key_bench =
    let i = ref 0 in
    Test.make ~name:"block-key: pack+hash"
      (Staged.stage (fun () ->
           incr i;
           ignore
             (Capfs_cache.Block.Key.hash
                (Capfs_cache.Block.Key.v (!i land 0xffff) (!i land 0xff)))))
  in
  let prng_bench =
    let p = Stats.Prng.create ~seed:1 in
    Test.make ~name:"prng: splitmix64 draw"
      (Staged.stage (fun () -> ignore (Stats.Prng.float p)))
  in
  let tests =
    [ sched_bench; cache_hit_bench; lru_bench; heap_bench; geometry_bench;
      seek_bench; inode_bench; key_bench; prng_bench ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all (Benchmark.cfg ~quota ~kde:None ()) [ clock ] test
  in
  let ols results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      clock results
  in
  List.iter
    (fun test ->
      let results = ols (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "  %-40s %12.1f ns/run@." name est
          | Some _ | None -> Format.printf "  %-40s (no estimate)@." name)
        results)
    tests

(* {1 BENCH_results.json}

   Schema (one object): { "preset", "jobs", "duration_s",
   "results": [ { "label", "trace", "policy", "worker", "ok",
   "wall_s", "operations", "replayed_ops_per_s", "mean_latency_ms",
   "p95_latency_ms", "cache_hit_rate", "blocks_flushed",
   "writes_absorbed", "errors", "skipped_ops", "errors_by_kind",
   "sim_elapsed_s",
   "minor_words_per_op", "promoted_words_per_op", "major_words_per_op",
   "major_collections" } ] } — the GC fields are per-domain
   Gc.quick_stat deltas taken around the experiment (see Fleet);
   failed jobs carry "ok": false and "error" instead of the figures.
   Bench rewrites only these four members: the file's "loadgen" member
   belongs to pfs loadgen. *)

module Json = Stats.Json

let result_json (r : Fleet.job_result) =
  let j = r.Fleet.job in
  let int n = Json.Num (float_of_int n) in
  let common =
    [
      ("label", Json.Str j.Fleet.label);
      ("trace", Json.Str j.Fleet.trace);
      ( "policy",
        Json.Str (Experiment.policy_name j.Fleet.config.Experiment.policy) );
      ("worker", int r.Fleet.worker);
      ("wall_s", Json.num r.Fleet.wall_s);
    ]
  in
  let per_op x ops = if ops > 0 then x /. float_of_int ops else 0. in
  match r.Fleet.result with
  | Error e ->
    Json.Obj
      (common
      @ [
          ("ok", Json.Bool false);
          ("error", Json.Str (Format.asprintf "%a" Fleet.pp_failure e));
        ])
  | Ok o ->
    let replay = o.Experiment.replay in
    let ops = replay.Replay.operations in
    Json.Obj
      (common
      @ [
          ("ok", Json.Bool true);
          ("operations", int ops);
          ( "replayed_ops_per_s",
            Json.num
              (if r.Fleet.wall_s > 0. then float_of_int ops /. r.Fleet.wall_s
               else 0.) );
          ( "mean_latency_ms",
            Json.num (1000. *. Stats.Sample_set.mean replay.Replay.latency) );
          ( "p95_latency_ms",
            Json.num
              (1000.
              *. (try Stats.Sample_set.quantile replay.Replay.latency 0.95
                  with Invalid_argument _ -> 0.)) );
          ("cache_hit_rate", Json.num o.Experiment.cache_hit_rate);
          ("blocks_flushed", int o.Experiment.blocks_flushed);
          ("writes_absorbed", int o.Experiment.writes_absorbed);
          ("errors", int replay.Replay.errors);
          ("skipped_ops", int replay.Replay.skipped_ops);
          ( "errors_by_kind",
            Json.Obj
              (List.map (fun (kind, n) -> (kind, int n))
                 replay.Replay.errors_by_kind) );
          ("sim_elapsed_s", Json.num replay.Replay.elapsed);
          ("minor_words_per_op", Json.num (per_op r.Fleet.minor_words ops));
          ( "promoted_words_per_op",
            Json.num (per_op r.Fleet.promoted_words ops) );
          ("major_words_per_op", Json.num (per_op r.Fleet.major_words ops));
          ("major_collections", int r.Fleet.major_collections);
        ])

(* Bench owns four members of the file; the rest (pfs loadgen's
   "loadgen") is kept as it is. *)
let write_results_json ~path ~preset ~jobs ~duration results =
  let own doc =
    doc
    |> Json.set "preset" (Json.Str preset)
    |> Json.set "jobs" (Json.Num (float_of_int jobs))
    |> Json.set "duration_s" (Json.num duration)
    |> Json.set "results" (Json.Arr (List.map result_json results))
  in
  match Json.update_file path own with
  | Ok () ->
    Format.printf "@.wrote %s (%d experiments)@." path (List.length results)
  | Error e ->
    Format.printf "@.cannot update %s: %s@." path e;
    exit 1

(* {1 perfsmoke}

   The CI guard: replay one small trace (sprite-1a) across the four
   policies and print the aggregate replayed ops/s so a workflow step
   can compare it against a committed floor. The floor should be set
   generously (an order of magnitude below typical) — it exists to
   catch 5x-style regressions, not scheduling noise. *)

let perfsmoke ~jobs ~duration =
  section "perf smoke: sprite-1a, all policies";
  let pairs =
    List.map (fun p -> ("sprite-1a", p)) Experiment.all_policies
  in
  let results =
    Fleet.run_matrix ~jobs
      ~config:(fun policy -> experiment_config ~policy ())
      ~gen:(gen_trace ~duration) pairs
  in
  results_log := !results_log @ results;
  let total_ops, total_wall =
    List.fold_left
      (fun (ops, wall) (r : Fleet.job_result) ->
        match r.Fleet.result with
        | Ok o ->
          ( ops + o.Experiment.replay.Replay.operations,
            wall +. r.Fleet.wall_s )
        | Error _ -> (ops, wall))
      (0, 0.) results
  in
  List.iter
    (fun (r : Fleet.job_result) ->
      match r.Fleet.result with
      | Ok o ->
        let ops = o.Experiment.replay.Replay.operations in
        Format.printf "  %-28s %9.0f ops/s  %10.1f minor words/op@."
          r.Fleet.job.Fleet.label
          (if r.Fleet.wall_s > 0. then float_of_int ops /. r.Fleet.wall_s
           else 0.)
          (if ops > 0 then r.Fleet.minor_words /. float_of_int ops else 0.)
      | Error e ->
        Format.printf "  %-28s FAILED: %a@." r.Fleet.job.Fleet.label
          Fleet.pp_failure e)
    results;
  (* the line CI parses: *)
  Format.printf "perfsmoke_total_ops_per_s %.0f@."
    (if total_wall > 0. then float_of_int total_ops /. total_wall else 0.)

(* {1 Baseline gate (-baseline FILE)}

   Compares the run just performed against a committed
   BENCH_results.json, per experiment label. Four checks:

   - what Patsy computes must not move at all: the {!simulated_fields}
     of each cell repeat exactly for a given trace and configuration,
     so each must print exactly as in the baseline row. A baseline row
     without a field skips that field.
   - [minor_words_per_op] is deterministic on a given machine, so any
     per-label growth beyond 10 % means a real allocation slipped into
     the replay path — fail. (The zero-copy data plane roughly halved
     the figure; the gate is tight so it stays down.)
   - [major_words_per_op] (promoted words plus the major heap's direct
     allocations) repeats exactly between [-j 1] runs too, and is what
     drives the major GC and peak RSS; the same 10 % per-label bound
     applies. A baseline row without the field skips this check.
   - throughput is wall-clock and therefore noisy per cell (the light
     cells finish in ~0.2 s), so [replayed_ops_per_s] is gated in
     aggregate: total replayed operations over total wall seconds across
     the matched labels must not drop more than 25 %.

   Exits 1 on violation, 2 if nothing overlaps (a vacuous gate is a
   misconfigured gate). The CI smoke job runs
   [figures -j 1 -traces sprite-1a,sprite-1b -baseline BENCH_results.json]. *)

let simulated_fields =
  [
    "operations"; "mean_latency_ms"; "p95_latency_ms"; "cache_hit_rate";
    "blocks_flushed"; "writes_absorbed"; "errors"; "skipped_ops";
    "errors_by_kind"; "sim_elapsed_s";
  ]

type baseline_row = {
  b_row : Json.t;
  b_ops : float;
  b_wall : float;
  b_minor : float;
  b_major : float option;
}

(* label -> row, from the "results" of a committed BENCH_results.json *)
let read_baseline path =
  let rows = Hashtbl.create 32 in
  (match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> (
    match Json.member "results" doc with
    | Some (Json.Arr results) ->
      List.iter
        (fun row ->
          let field k = Json.member k row in
          match
            ( field "label",
              field "operations",
              field "wall_s",
              field "minor_words_per_op" )
          with
          | ( Some (Json.Str label),
              Some (Json.Num b_ops),
              Some (Json.Num b_wall),
              Some (Json.Num b_minor) ) ->
            let b_major =
              match field "major_words_per_op" with
              | Some (Json.Num m) -> Some m
              | _ -> None
            in
            Hashtbl.replace rows label
              { b_row = row; b_ops; b_wall; b_minor; b_major }
          | _ -> ())
        results
    | _ -> ())
  | Error e -> Format.printf "  %s does not parse: %s@." path e);
  rows

let baseline_gate ~path results =
  section (Printf.sprintf "baseline gate: vs %s" path);
  let base = read_baseline path in
  let fresh =
    List.filter_map
      (fun (r : Fleet.job_result) ->
        match r.Fleet.result with
        | Error _ -> None
        | Ok o ->
          let ops = float_of_int o.Experiment.replay.Replay.operations in
          let per_op x = if ops > 0. then x /. ops else 0. in
          Some
            ( r.Fleet.job.Fleet.label,
              result_json r,
              ops,
              r.Fleet.wall_s,
              per_op r.Fleet.minor_words,
              per_op r.Fleet.major_words ))
      results
  in
  let failures = ref 0 in
  let ops_new = ref 0. and wall_new = ref 0. in
  let ops_base = ref 0. and wall_base = ref 0. in
  let matched = ref 0 in
  List.iter
    (fun (label, row, ops, wall, minor, major) ->
      match Hashtbl.find_opt base label with
      | None -> Format.printf "  %-36s (not in baseline, skipped)@." label
      | Some b ->
        incr matched;
        ops_new := !ops_new +. ops;
        wall_new := !wall_new +. wall;
        ops_base := !ops_base +. b.b_ops;
        wall_base := !wall_base +. b.b_wall;
        let gate what base fresh =
          let growth =
            if base > 0. then (fresh -. base) /. base else 0.
          in
          let bad = growth > 0.10 in
          if bad then incr failures;
          Format.printf "  %-36s %s/op %8.1f -> %8.1f (%+5.1f%%)%s@." label
            what base fresh (100. *. growth)
            (if bad then "  FAIL (> +10%)" else "")
        in
        List.iter
          (fun field ->
            match Json.member field b.b_row with
            | None -> ()
            | Some base ->
              let base = Json.compact base
              and fresh =
                Option.fold ~none:"(missing)" ~some:Json.compact
                  (Json.member field row)
              in
              if base <> fresh then begin
                incr failures;
                Format.printf "  %-36s %s %s -> %s  FAIL (simulation changed)@."
                  label field base fresh
              end)
          simulated_fields;
        gate "minor_words" b.b_minor minor;
        match b.b_major with
        | Some base -> gate "major_words" base major
        | None ->
          Format.printf "  %-36s major_words/op (not in baseline, skipped)@."
            label)
    fresh;
  if !matched = 0 then begin
    Format.printf "  no overlapping experiments with the baseline — refusing \
                   to pass vacuously@.";
    exit 2
  end;
  let tput_new = if !wall_new > 0. then !ops_new /. !wall_new else 0. in
  let tput_base = if !wall_base > 0. then !ops_base /. !wall_base else 0. in
  let drop =
    if tput_base > 0. then (tput_base -. tput_new) /. tput_base else 0.
  in
  let tput_bad = drop > 0.25 in
  if tput_bad then incr failures;
  Format.printf
    "  aggregate replayed_ops_per_s %10.0f -> %10.0f (%+5.1f%%)%s@." tput_base
    tput_new
    (-100. *. drop)
    (if tput_bad then "  FAIL (> -25%)" else "");
  if !failures > 0 then begin
    Format.printf "baseline gate: %d failure(s)@." !failures;
    exit 1
  end
  else Format.printf "baseline gate: ok (%d experiment(s) compared)@." !matched


(* {1 gentrace / streamsmoke: the large-trace streaming smoke}

   Two subcommands, two separate processes by design: [gentrace]
   materializes a ~N-record synthetic trace and saves it in sprite text
   form (generation inherently builds the array — the generator ends
   with a global time sort), then [streamsmoke] replays that file
   through the cursor-backed source in a fresh process, so the peak RSS
   it reports reflects streamed replay alone, not generation. *)

let gentrace ~out ~records ~seed =
  section (Printf.sprintf "gentrace: ~%d records -> %s" records out);
  let profile = Synth.profile_by_name (List.hd !trace_names) in
  (* record volume scales ~linearly with duration: calibrate on a short
     sample, then generate the real thing *)
  let sample_dur = 120. in
  let sample = Synth.generate ~seed ~duration:sample_dur profile in
  let per_s = float_of_int (Array.length sample) /. sample_dur in
  let duration = float_of_int records /. per_s in
  let trace = Synth.generate ~seed ~duration profile in
  Capfs_trace.Sprite_format.save out trace;
  Format.printf "gentrace_records %d@." (Array.length trace);
  Format.printf "gentrace_simulated_s %.0f@." duration

(* peak resident set of this process, from /proc (Linux only) *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          go
            (int_of_string_opt
               (String.trim
                  (String.map
                     (function '0' .. '9' as c -> c | _ -> ' ')
                     (String.sub line 6 (String.length line - 6))
                   |> String.trim |> String.split_on_char ' ' |> List.hd)))
        else go acc
    in
    let r = go None in
    close_in ic;
    Option.map (fun kb -> float_of_int kb /. 1024.) r

let streamsmoke ~file ~rss_mb =
  section (Printf.sprintf "stream smoke: %s" file);
  let source = Capfs_trace.Source.sprite_file file in
  let config = experiment_config ~policy:Experiment.Ups () in
  let t0 = Unix.gettimeofday () in
  let o = Experiment.run config ~trace:source in
  let wall = Unix.gettimeofday () -. t0 in
  let ops = o.Experiment.replay.Replay.operations in
  Format.printf "streamsmoke_ops %d@." ops;
  Format.printf "streamsmoke_errors %d@." o.Experiment.replay.Replay.errors;
  Format.printf "streamsmoke_ops_per_s %.0f@."
    (if wall > 0. then float_of_int ops /. wall else 0.);
  (match vm_hwm_mb () with
  | None -> Format.printf "streamsmoke_vm_hwm_mb unavailable@."
  | Some hwm ->
    Format.printf "streamsmoke_vm_hwm_mb %.1f@." hwm;
    match rss_mb with
    | Some ceiling when hwm > float_of_int ceiling ->
      Format.printf
        "streamsmoke: FAIL peak RSS %.1f MB exceeds the %d MB ceiling — \
         streamed replay is materializing the trace@."
        hwm ceiling;
      exit 1
    | Some ceiling ->
      Format.printf "streamsmoke: ok (peak RSS %.1f MB <= %d MB)@." hwm
        ceiling
    | None -> ())

(* {1 Main} *)

let usage =
  "usage: main.exe [quick|full|figures|ablations|micro|perfsmoke\
   |gentrace|streamsmoke] [-j N] [-trace-out FILE] [-no-coalesce] \
   [-traces T1,T2] [-baseline FILE] [-o FILE] [-records N] [-file FILE] \
   [-rss-mb MB]"

let parse_args () =
  let preset = ref "default" in
  let jobs = ref (Fleet.default_jobs ()) in
  let trace_out = ref None in
  let baseline = ref None in
  let out = ref "stream.trace" in
  let records = ref 1_000_000 in
  let file = ref None in
  let rss_mb = ref None in
  let rec go i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "-j" | "--jobs" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        jobs := int_of_string Sys.argv.(i + 1);
        go (i + 2)
      | s when String.length s > 2 && String.sub s 0 2 = "-j" ->
        jobs := int_of_string (String.sub s 2 (String.length s - 2));
        go (i + 1)
      | "-trace-out" | "--trace-out" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        trace_out := Some Sys.argv.(i + 1);
        go (i + 2)
      | "-no-coalesce" | "--no-coalesce" ->
        coalesce := false;
        go (i + 1)
      | "-traces" | "--traces" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        trace_names := String.split_on_char ',' Sys.argv.(i + 1);
        go (i + 2)
      | "-baseline" | "--baseline" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        baseline := Some Sys.argv.(i + 1);
        go (i + 2)
      | "-o" | "--out" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        out := Sys.argv.(i + 1);
        go (i + 2)
      | "-records" | "--records" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        records := int_of_string Sys.argv.(i + 1);
        go (i + 2)
      | "-file" | "--file" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        file := Some Sys.argv.(i + 1);
        go (i + 2)
      | "-rss-mb" | "--rss-mb" ->
        if i + 1 >= Array.length Sys.argv then failwith usage;
        rss_mb := Some (int_of_string Sys.argv.(i + 1));
        go (i + 2)
      | s ->
        preset := s;
        go (i + 1)
  in
  go 1;
  (!preset, Stdlib.max 1 !jobs, !trace_out, !baseline, !out, !records, !file,
   !rss_mb)

let () =
  let preset, jobs, trace_out, baseline, out, records, file, rss_mb =
    parse_args ()
  in
  if trace_out <> None then trace_buffer := 65536;
  (* standalone subcommands: no matrix, no BENCH_results.json rewrite *)
  (match preset with
  | "gentrace" ->
    gentrace ~out ~records ~seed:1996;
    exit 0
  | "streamsmoke" ->
    (match file with
    | Some f -> streamsmoke ~file:f ~rss_mb
    | None -> failwith usage);
    exit 0
  | _ -> ());
  let duration, do_figures, do_ablations, do_micro, do_perfsmoke =
    match preset with
    | "quick" -> (300., true, true, true, false)
    | "full" -> (3600., true, true, true, false)
    | "figures" -> (900., true, false, false, false)
    | "ablations" -> (900., false, true, false, false)
    | "micro" -> (0., false, false, true, false)
    | "perfsmoke" -> (900., false, false, false, true)
    | _ -> (900., true, true, true, false)
  in
  Format.printf
    "cut-and-paste file-systems benchmark harness (preset: %s, %.0f \
     simulated seconds per run, -j %d)@."
    preset duration jobs;
  if do_figures then begin
    let matrix = run_matrix ~jobs ~duration in
    List.iter
      (fun (figure, trace) ->
        if List.mem trace !trace_names then figure_cdf ~matrix ~figure trace)
      [ (2, "sprite-1a"); (3, "sprite-1b"); (4, "sprite-5") ];
    figure5 ~matrix
  end;
  if do_ablations then begin
    ablation_sync_flush ~duration;
    ablation_cleaner ~jobs ~duration;
    ablation_iosched ~jobs ~duration;
    ablation_replacement ~jobs ~duration;
    ablation_disk_features ~jobs ~duration;
    ablation_cache_size ~jobs ~duration;
    ablation_nvram_size ~jobs ~duration
  end;
  if do_micro then micro ();
  if do_perfsmoke then perfsmoke ~jobs ~duration;
  if !results_log <> [] then
    write_results_json ~path:"BENCH_results.json" ~preset ~jobs ~duration
      !results_log;
  (match trace_out with
  | None -> ()
  | Some path ->
    let stream = Fleet.merged_events !results_log in
    Capfs_obs.Export.to_file path stream;
    Format.printf "@.wrote %d trace events to %s@." (List.length stream) path);
  (match baseline with
  | None -> ()
  | Some path -> baseline_gate ~path !results_log);
  Format.printf "@.done.@."
