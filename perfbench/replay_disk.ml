(* replay-disk: Patsy replays the Synth sprite-5 profile on the scaled-down
   server of bench/main.ml, in this process, through Synth.generate and
   Experiment.run. *)

module Experiment = Capfs_patsy.Experiment
module Synth = Capfs_trace.Synth
module Source = Capfs_trace.Source
module Registry = Capfs_stats.Registry
module Stat = Capfs_stats.Stat
module Welford = Capfs_stats.Welford

(* Simulated seconds of trace per replay. *)
let duration = 900.

(* Trace generations timed per run; setup_s is their median. *)
let setup_reps = 5

(* Replays per run at the least, however short [--seconds]. *)
let min_replays = 3

(* Trace seeds tried per benchmark seed before the run fails. *)
let max_traces = 4

(* SIGPROF period of the traced run's sampler. *)
let sample_interval = 0.002

(* Event ring of the traced run's Capfs_obs tracer. *)
let trace_buffer = 65536

(* bench/main.ml's scaled-down Sprite server under the UPS policy: 2
   HP97560 disks on one SCSI bus, a 24 MB cache, 4 MB NVRAM, coalescing
   on, C-LOOK, LRU. *)
let config ~seed ~trace_buffer =
  {
    (Experiment.default Experiment.Ups) with
    Experiment.ndisks = 2;
    nbuses = 1;
    cache_mb = 24;
    nvram_mb = 4;
    coalesce = true;
    seed;
    trace_buffer;
  }

(* Digests of the first replay for recorded trace seeds: any change to
   what the simulator computes shows here. *)
let known_digests =
  [
    (1, "ops=713786 flushed=370564 mean_latency_ms=48.926808352");
    (2, "ops=697554 flushed=390683 mean_latency_ms=47.235038974");
  ]

let digest (o : Experiment.outcome) =
  Printf.sprintf "ops=%d flushed=%d mean_latency_ms=%.9f"
    o.Experiment.replay.Capfs_patsy.Replay.operations o.Experiment.blocks_flushed
    (1000. *. Capfs_stats.Sample_set.mean o.Experiment.replay.Capfs_patsy.Replay.latency)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type replay = {
  ops : int;
  errors : int;
  wall : float;
  cpu : float;
  minor : float;
  promoted : float;
  majors : int;
  outcome : Experiment.outcome;
}

(* One replay, from a collected heap so that every replay of a run
   starts from the same state; [sampled] runs the profiler around the
   replay alone. *)
let replay_once ?(sampled = false) cfg trace =
  let source = Source.of_array ~name:"sprite-5" trace in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () and w0 = Unix.gettimeofday () in
  if sampled then Sampler.start ~interval:sample_interval;
  let outcome = Experiment.run cfg ~trace:source in
  if sampled then Sampler.stop ();
  let w1 = Unix.gettimeofday () and c1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  let r = outcome.Experiment.replay in
  Printf.eprintf "replay: %d ops in %.3f s wall, %.3f s CPU\n%!"
    r.Capfs_patsy.Replay.operations (w1 -. w0) (c1 -. c0);
  {
    ops = r.Capfs_patsy.Replay.operations;
    errors = r.Capfs_patsy.Replay.errors;
    wall = w1 -. w0;
    cpu = c1 -. c0;
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    outcome;
  }

let errors_text r =
  String.concat ", "
    (List.map
       (fun (k, n) -> Printf.sprintf "%s %d" k n)
       r.outcome.Experiment.replay.Capfs_patsy.Replay.errors_by_kind)

let generate tseed = Synth.generate ~seed:tseed ~duration Synth.sprite_5

(* The input of [seed]: the first trace of the sequence seed, seed +
   2^32, seed + 2*2^32, ... that replays without error, with that
   replay. About one sprite-5 trace in twenty trips the simulator's
   create race (a client synthesizing a pre-existing file that another
   client creates at the same simulated moment fails with EEXIST); such
   a trace is reported on stderr and the next one taken, so no
   operation of the workload fails. *)
let pick_trace cfg seed =
  let rec go k =
    let tseed = seed + (k lsl 32) in
    let trace = generate tseed in
    let r = replay_once cfg trace in
    if r.errors = 0 || k + 1 = max_traces then (tseed, trace, r)
    else begin
      Printf.eprintf "replay-disk: trace seed %d: %d replay errors (%s); next trace\n%!"
        tseed r.errors (errors_text r);
      go (k + 1)
    end
  in
  go 0

let per_op r x = x /. float_of_int (max 1 r.ops)
let median_of rs f = Samples.median (List.map f rs)

(* Registry figures, summed over the numbered instances driver0.. etc. *)
let count reg name =
  match Registry.find reg name with Some s -> Stat.count s | None -> 0

let total reg name =
  match Registry.find reg name with
  | Some s -> Welford.total (Stat.welford s)
  | None -> 0.

let sum_instances n f = List.fold_left ( +. ) 0. (List.init n f)

let registry_metrics m (cfg : Experiment.config) r =
  let reg = r.outcome.Experiment.registry in
  let ops = float_of_int (max 1 r.ops) in
  let per_op x = x /. ops in
  let disks = cfg.Experiment.ndisks and buses = cfg.Experiment.nbuses in
  let counts prefix suffix n =
    sum_instances n (fun i ->
        float_of_int (count reg (Printf.sprintf "%s%d.%s" prefix i suffix)))
  in
  let totals prefix suffix n =
    sum_instances n (fun i -> total reg (Printf.sprintf "%s%d.%s" prefix i suffix))
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let flushed = float_of_int r.outcome.Experiment.blocks_flushed in
  let absorbed = float_of_int r.outcome.Experiment.writes_absorbed in
  Metrics.set m "cache.hit_rate" r.outcome.Experiment.cache_hit_rate;
  Metrics.set m "cache.evictions_per_op"
    (per_op (float_of_int (count reg "cache.evictions")));
  Metrics.set m "cache.flushed_blocks_per_op" (per_op flushed);
  Metrics.set m "cache.absorbed_frac" (ratio absorbed (absorbed +. flushed));
  Metrics.set m "lfs.segments_per_kop"
    (1000. *. per_op (counts "lfs" "segment_sealed" disks));
  let requests = counts "driver" "response" disks in
  Metrics.set m "driver.requests_per_op" (per_op requests);
  Metrics.set m "disk.seeks_per_op" (per_op (counts "disk" "seek" disks));
  (* simulated waits are deterministic per seed: prose, not metrics *)
  Printf.printf "simulated waits: driver queue %.3f ms, bus acquire %.3f ms\n"
    (1000. *. ratio (totals "driver" "wait" disks) (counts "driver" "wait" disks))
    (1000.
    *. ratio (totals "bus" "acquire_wait" buses) (counts "bus" "acquire_wait" buses))

let run ~seed ~seconds ~traced m =
  let cfg = config ~seed ~trace_buffer:0 in
  let tcfg = config ~seed ~trace_buffer in
  let tseed, trace, first = pick_trace cfg seed in
  (* setup: generate the trace [setup_reps] more times, each from a
     collected heap; every generation must give the same records *)
  let gen_times =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let tr = generate tseed in
        let dt = Unix.gettimeofday () -. t0 in
        if tr <> trace then
          Metrics.fail "Synth.generate gave two traces for trace seed %d" tseed;
        dt)
  in
  let setup_s = Samples.median gen_times in
  let t_end = Unix.gettimeofday () +. seconds in
  let plain = ref [ first ] and sampled = ref [] and events = ref 0 in
  let rec loop i =
    if i < min_replays || Unix.gettimeofday () < t_end then begin
      plain := replay_once cfg trace :: !plain;
      if traced then begin
        let r = replay_once ~sampled:true tcfg trace in
        events := !events + List.length r.outcome.Experiment.events;
        sampled := r :: !sampled
      end;
      loop (i + 1)
    end
  in
  loop 1;
  let plain = List.rev !plain and sampled = List.rev !sampled in
  (* checks: every replay replays every record without error and
     computes the same digest; recorded trace seeds match their record *)
  let d0 = digest first.outcome in
  List.iter
    (fun r ->
      if r.ops <> Array.length trace then
        Metrics.fail "replayed %d ops of a %d-record trace" r.ops
          (Array.length trace);
      if r.errors > 0 then
        Metrics.fail "%d replay errors (%s)" r.errors (errors_text r);
      let d = digest r.outcome in
      if d <> d0 then Metrics.fail "replays disagree: %s vs %s" d d0)
    (plain @ sampled);
  (match List.assoc_opt tseed known_digests with
  | Some d when d <> d0 ->
    Metrics.fail "trace seed %d digest %s, recorded %s" tseed d0 d
  | _ -> ());
  Printf.printf "replay-disk: trace seed %d, %d records, %d replays; digest %s\n"
    tseed (Array.length trace) (List.length plain) d0;
  let cpu_us r = 1e6 *. per_op r r.cpu in
  Metrics.set m "ops_per_s" (median_of plain (fun r -> float_of_int r.ops /. r.wall));
  Metrics.set m "cpu_us_per_op" (median_of plain cpu_us);
  Metrics.set m "peak_rss_mb" (Procfs.peak_rss_mb "self");
  Metrics.set m "setup_s" setup_s;
  Metrics.set m "minor_words_per_op" (median_of plain (fun r -> per_op r r.minor));
  let ops = List.fold_left (fun a r -> a + r.ops) 0 plain in
  let errors = List.fold_left (fun a r -> a + r.errors) 0 plain in
  Metrics.set m "failed_frac" (float_of_int errors /. float_of_int (max 1 ops));
  Metrics.set m "gc.promoted_words_per_op"
    (median_of plain (fun r -> per_op r r.promoted));
  Metrics.set m "gc.major_collections"
    (median_of plain (fun r -> float_of_int r.majors));
  registry_metrics m cfg first;
  if traced then begin
    let shares = Sampler.shares () in
    List.iter
      (fun (layer, share) -> Metrics.set m (layer ^ ".self_frac") share)
      shares;
    let sum = List.fold_left (fun a (_, s) -> a +. s) 0. shares in
    if Sampler.total () < 100 || Float.abs (sum -. 1.) > 1e-9 then
      Metrics.fail "profile: %d samples, shares sum to %g" (Sampler.total ()) sum;
    Metrics.set m "trace.overhead_frac"
      ((median_of sampled cpu_us /. median_of plain cpu_us) -. 1.);
    Printf.printf "replay-disk: %d profiler samples, %d trace events\n"
      (Sampler.total ()) !events
  end;
  { Metrics.attempted = ops; failed = errors }
