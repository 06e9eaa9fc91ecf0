(* Patsy: the off-line file-system simulator.

   Replays a trace (synthetic profile or trace file) against a fully
   simulated file server and reports operation latencies, per the
   experiments of §5.1. Several policies (-p ups,nvram-whole or -p all)
   fan out over a fleet of domains (-j N). *)

module Experiment = Capfs_patsy.Experiment
module Fleet = Capfs_patsy.Fleet
module Report = Capfs_patsy.Report
module Crash = Capfs_patsy.Crash
module Diffval = Capfs_diffval.Diffval
module Plan = Capfs_fault.Plan
module Lfs = Capfs_layout.Lfs

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* [-stream] with a file format replays straight off the file, so the
   trace is never in memory whole; without it the file is loaded into
   an array first. Synth profiles always materialize. Replay runs the
   same engine over either source. *)
let source_of_trace ~trace ~format ~seed ~duration ~stream =
  match (format, stream) with
  | "sprite-file", true -> Capfs_trace.Source.sprite_file trace
  | "coda-file", true -> Capfs_trace.Source.coda_file trace
  | "sprite-file", false ->
    Capfs_trace.Source.of_array ~name:trace (Capfs_trace.Sprite_format.load trace)
  | "coda-file", false ->
    Capfs_trace.Source.of_array ~name:trace (Capfs_trace.Coda_format.load trace)
  | "synth", _ ->
    let profile = Capfs_trace.Synth.profile_by_name trace in
    Capfs_trace.Synth.source ~seed ?duration profile
  | f, _ -> invalid_arg ("unknown trace format: " ^ f)

let policy_of_name = function
  | "write-delay" | "write-delay-30s" -> Experiment.Write_delay
  | "ups" -> Experiment.Ups
  | "nvram-whole" -> Experiment.Nvram_whole
  | "nvram-partial" -> Experiment.Nvram_partial
  | p -> invalid_arg ("unknown policy: " ^ p)

let policies_of_arg arg =
  if arg = "all" then Experiment.all_policies
  else String.split_on_char ',' arg |> List.map policy_of_name

let print_one ~trace ~show_cdf ~show_windows ~show_stats outcome =
  Format.printf "%a@." Report.print_outcome_summary outcome;
  if show_windows then
    Format.printf "%a@." Report.print_windows outcome.Experiment.replay;
  if show_stats then begin
    (* "plug-in statistics ... provide standard statistics output with
       or without histograms" *)
    Format.printf "@.# plug-in statistics:@.";
    Capfs_stats.Registry.report ~histograms:true Format.std_formatter
      outcome.Experiment.registry
  end;
  if show_cdf then begin
    let title =
      Printf.sprintf "%s / %s" trace (Experiment.policy_name outcome.Experiment.config.Experiment.policy)
    in
    Report.print_cdf ~title Format.std_formatter outcome.Experiment.replay;
    Format.printf "@."
  end

(* Crash-recovery mode (--crash-at): one experiment, killed mid-run,
   recovered with Lfs.recover and checked against the shadow model. *)
let run_crash ~config ~records plan =
  let report = Crash.run ~config ~trace:records plan in
  Format.printf "# crash: power cut at t=%g, %d ops applied before the cut@."
    report.Crash.crash_time report.Crash.applied_ops;
  List.iter
    (fun (name, r) ->
      Format.printf
        "  %s: checkpoint seq %d, rolled %d segment(s) forward, %d live \
         inode(s)%s@."
        name r.Lfs.r_checkpoint_seq r.Lfs.r_rolled_segments
        r.Lfs.r_recovered_inodes
        (match r.Lfs.r_fsck_errors with
        | [] -> ""
        | errs -> Printf.sprintf ", %d fsck error(s)" (List.length errs)))
    report.Crash.recoveries;
  List.iter
    (fun (name, e) ->
      Format.printf "  %s: RECOVERY FAILED (%s)@." name
        (Capfs_core.Errno.to_string e))
    report.Crash.failed_volumes;
  Format.printf "# shadow model: %d durable-floor entr(ies)%s, %d violation(s)@."
    report.Crash.floor_size
    (if report.Crash.floor_synced then ""
     else " — floor sync did not complete before the crash")
    (List.length report.Crash.violations);
  List.iter
    (fun v -> Format.printf "  violation: %a@." Crash.pp_violation v)
    report.Crash.violations;
  Format.printf "# verdict: %s@."
    (if report.Crash.ok then "CONSISTENT" else "INCONSISTENT");
  if report.Crash.ok then 0 else 1

(* Differential mode (--differential): the same trace through Patsy
   (virtual time, simulated disk) and PFS (real time, real backing file),
   policy-visible statistics diffed within tolerance. *)
let run_differential ~trace ~source ~config ~image_mb ~speedup ~report_out
    ~skew =
  let dcfg =
    {
      (Diffval.default ()) with
      Diffval.base =
        {
          config with
          (* PFS runs on one backing file; the comparable farm is the
             single-spindle one, and simulated memcpy time would charge
             real seconds on the on-line half *)
          Experiment.ndisks = 1;
          nbuses = 1;
          mem_copy_rate = 0.;
        };
      image_mb;
      speedup;
    }
  in
  match
    Diffval.run ~skew:(Option.to_list skew) ~config:dcfg ~trace_name:trace
      source
  with
  | Error e ->
    Format.eprintf "patsy --differential: harness failure (%a)@."
      Capfs_core.Errno.pp e;
    2
  | Ok report ->
    Format.printf "%a" Diffval.pp report;
    (match report_out with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Capfs_stats.Json.to_string (Diffval.to_json report)));
      Format.printf "# wrote JSON report to %s@." path);
    if report.Diffval.r_ok then 0 else 1

let run_main trace format policy duration seed parallel_jobs disks buses
    cache_mb nvram_mb iosched replacement cleaner sync_flush no_coalesce
    flush_window max_extent request_overhead fault_plan crash_at
    differential image_mb diff_speedup diff_report diff_skew stream
    trace_out trace_buffer show_cdf show_windows show_stats log_level =
  setup_logs log_level;
  let policies = policies_of_arg policy in
  let plan =
    match fault_plan with
    | None -> Plan.empty
    | Some spec -> (
      match Plan.of_string spec with
      | Ok p -> p
      | Error msg -> invalid_arg ("--fault-plan: " ^ msg))
  in
  let plan =
    match crash_at with
    | None -> plan
    | Some t -> { plan with Plan.crash_at = Some t }
  in
  let config policy =
    {
      (Experiment.default policy) with
      Experiment.ndisks = disks;
      nbuses = buses;
      cache_mb;
      nvram_mb;
      iosched;
      replacement;
      cleaner =
        (match cleaner with
        | "greedy" -> Capfs_layout.Lfs.Greedy
        | "cost-benefit" -> Capfs_layout.Lfs.Cost_benefit
        | c -> invalid_arg ("unknown cleaner: " ^ c));
      async_flush = not sync_flush;
      coalesce = not no_coalesce;
      flush_window;
      max_extent;
      request_overhead;
      seed;
      trace_buffer = (if trace_out = None then 0 else trace_buffer);
      fault_plan = (if Plan.is_empty plan then None else Some plan);
    }
  in
  (* build once here; sources (and the arrays behind them) are
     immutable, so the fleet workers can share it *)
  let source = source_of_trace ~trace ~format ~seed ~duration ~stream in
  if differential then
    run_differential ~trace ~source
      ~config:(config (List.hd policies))
      ~image_mb ~speedup:diff_speedup ~report_out:diff_report
      ~skew:diff_skew
  else if plan.Plan.crash_at <> None then
    (* crash replay needs the records in hand (it replays prefixes) *)
    run_crash ~config:(config (List.hd policies))
      ~records:(Capfs_trace.Source.to_array source) plan
  else begin
  Format.printf "# patsy: trace=%s policies=%s records=%s jobs=%d@." trace
    (String.concat ","
       (List.map Experiment.policy_name policies))
    (match Capfs_trace.Source.as_array source with
    | Some a -> string_of_int (Array.length a)
    | None -> "streamed")
    parallel_jobs;
  let results =
    Fleet.run_matrix ~jobs:parallel_jobs ~config
      ~gen:(fun _ -> source)
      (List.map (fun p -> (trace, p)) policies)
  in
  match Fleet.failures results with
  | (job, f) :: _ ->
    Format.eprintf "patsy: experiment %s %a@." job.Fleet.label Fleet.pp_failure
      f;
    1
  | [] ->
    List.iter
      (fun r ->
        print_one ~trace ~show_cdf ~show_windows ~show_stats
          (Fleet.outcome_exn r))
      results;
    (match trace_out with
    | None -> ()
    | Some path ->
      let stream = Fleet.merged_events results in
      Capfs_obs.Export.to_file path stream;
      Format.printf "# wrote %d trace events to %s@." (List.length stream) path);
    0
  end

open Cmdliner

let trace =
  Arg.(value & opt string "sprite-1a"
       & info [ "t"; "trace" ] ~docv:"TRACE"
           ~doc:"Synthetic profile name (sprite-1a, sprite-1b, sprite-2a, \
                 sprite-2b, sprite-5) or a trace file path.")

let format =
  Arg.(value & opt string "synth"
       & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"Trace source: synth, sprite-file or coda-file.")

let policy =
  Arg.(value & opt string "ups"
       & info [ "p"; "policy" ] ~docv:"POLICY"
           ~doc:"Flush policy: write-delay, ups, nvram-whole, nvram-partial; \
                 a comma-separated list, or 'all', replays the trace under \
                 each policy (in parallel with -j).")

let duration =
  Arg.(value & opt (some float) None
       & info [ "d"; "duration" ] ~docv:"SECONDS"
           ~doc:"Override the synthetic trace duration.")

let seed = Arg.(value & opt int 1996 & info [ "seed" ] ~docv:"SEED")

let parallel_jobs =
  let default = Fleet.default_jobs () in
  Arg.(value & opt int default
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for multi-policy runs (default: the \
                 recommended domain count). Each experiment is fully \
                 domain-isolated, so results are identical at any -j.")

let disks = Arg.(value & opt int 10 & info [ "disks" ] ~docv:"N")
let buses = Arg.(value & opt int 3 & info [ "buses" ] ~docv:"N")
let cache_mb = Arg.(value & opt int 128 & info [ "cache-mb" ] ~docv:"MB")
let nvram_mb = Arg.(value & opt int 4 & info [ "nvram-mb" ] ~docv:"MB")

let iosched =
  Arg.(value & opt string "clook"
       & info [ "iosched" ] ~docv:"POLICY"
           ~doc:"Disk queue policy: fcfs, sstf, scan, look, cscan, clook, \
                 scan-edf.")

let replacement =
  Arg.(value & opt string "lru"
       & info [ "replacement" ] ~docv:"POLICY"
           ~doc:"Cache replacement: lru, random, lfu, slru, lru-2.")

let cleaner =
  Arg.(value & opt string "cost-benefit"
       & info [ "cleaner" ] ~doc:"LFS cleaner: greedy or cost-benefit.")

let sync_flush =
  Arg.(value & flag
       & info [ "sync-flush" ]
           ~doc:"Flush synchronously from the allocating thread (the \
                 pre-lesson behaviour of §5.2).")

let no_coalesce =
  Arg.(value & flag
       & info [ "no-coalesce" ]
           ~doc:"Disable I/O coalescing: no flush-set clustering in the \
                 cache and no request merging in the disk driver. \
                 Restores the pre-clustering simulated behaviour \
                 bit-for-bit.")

let flush_window =
  Arg.(value & opt int 4
       & info [ "flush-window" ] ~docv:"N"
           ~doc:"Extent write-backs the cache flusher keeps in flight at \
                 once (write-behind pipelining; coalescing only).")

let max_extent =
  Arg.(value & opt int 64
       & info [ "max-extent" ] ~docv:"BLOCKS"
           ~doc:"Cap on one clustered flush extent, and on one merged \
                 disk request, in file blocks (coalescing only).")

let request_overhead =
  Arg.(value & opt (some float) None
       & info [ "request-overhead" ] ~docv:"SECONDS"
           ~doc:"Per-request fixed disk cost (controller command decode \
                 etc.), charged once per physical request regardless of \
                 size — the term coalescing amortises. Default: the disk \
                 model's own figure (2 ms for the HP97560).")

let fault_plan =
  Arg.(value & opt (some string) None
       & info [ "fault-plan" ] ~docv:"PLAN"
           ~doc:"Deterministic disk-fault schedule, as comma-separated \
                 key=value pairs: read_error=P and write_error=P \
                 (per-request transient failure probabilities), latent=P \
                 (latent-sector-error density), stall_p=P and stall_s=S \
                 (whole-disk stall probability and duration), crash_at=T \
                 (power cut at virtual time T), seed=N (fault PRNG seed; \
                 defaults to --seed). Same plan + same seed = same fault \
                 schedule, at any -j.")

let crash_at =
  Arg.(value & opt (some float) None
       & info [ "crash-at" ] ~docv:"T"
           ~doc:"Kill the replay by power cut at virtual time $(docv), \
                 then recover every volume (checkpoint + roll-forward + \
                 fsck) and verify the namespace against the shadow \
                 model. Shorthand for crash_at=T in --fault-plan; exits \
                 non-zero if recovery or the consistency check fails.")

let differential =
  Arg.(value & flag
       & info [ "differential" ]
           ~doc:"Differential sim-vs-real validation: replay the trace \
                 through Patsy (virtual time, simulated disk) and through \
                 PFS (real time, real backing file), then diff the \
                 policy-visible statistics within declared tolerances \
                 (see VALIDATION.md). Uses the first --policy, forces one \
                 disk/one bus, and honours --fault-plan (crash_at \
                 stripped). Exits 0 when equivalent, 1 on drift.")

let image_mb =
  Arg.(value & opt int 128
       & info [ "image-mb" ] ~docv:"MB"
           ~doc:"Backing-image size for the PFS half of --differential.")

let diff_speedup =
  Arg.(value & opt float 100_000.
       & info [ "diff-speedup" ] ~docv:"X"
           ~doc:"Replay time compression for --differential, applied to \
                 both halves so time-triggered policy behaviour stays \
                 comparable (the PFS half runs under the real clock).")

let diff_report =
  Arg.(value & opt (some string) None
       & info [ "diff-report" ] ~docv:"FILE"
           ~doc:"Write the machine-readable differential report (JSON: \
                 both snapshots, per-counter verdicts, fsck findings) to \
                 $(docv).")

let diff_skew =
  Arg.(value & opt (some string) None
       & info [ "diff-skew" ] ~docv:"KEY=VALUE"
           ~doc:"Deliberately skew one parameter on the PFS half only, \
                 in pfs's $(b,--set) vocabulary (e.g. seg-blocks=32, \
                 cache-mb=8, coalesce=off) — a self-test: the \
                 differential run must then exit 1. A key or value pfs \
                 refuses is a harness failure (exit 2).")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the merged structured event trace as Chrome \
                 trace_event JSON to $(docv) (open with Perfetto or \
                 chrome://tracing). Enables event tracing for the run.")

let stream =
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:"Stream the trace file instead of loading it: replay \
                 pulls records through a cursor with O(active window) \
                 memory (file formats only; synth profiles always \
                 materialize).")

let trace_buffer =
  Arg.(value & opt int 65536
       & info [ "trace-buffer" ] ~docv:"EVENTS"
           ~doc:"Per-experiment event ring capacity; when the run emits \
                 more events, only the newest $(docv) are kept.")

let show_cdf =
  Arg.(value & flag & info [ "cdf" ] ~doc:"Print the latency CDF series.")

let show_windows =
  Arg.(value & flag
       & info [ "windows" ] ~doc:"Print 15-minute window summaries.")

let show_stats =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Activate and print the plug-in statistics (with \
                 histograms of disk queue sizes, rotational delays, \
                 cache behaviour).")

let log_level =
  let env = Cmd.Env.info "PATSY_VERBOSITY" in
  Logs_cli.level ~env ()

let cmd =
  let doc = "trace-driven file-system simulator (Bosch & Mullender, 1996)" in
  Cmd.v
    (Cmd.info "patsy" ~doc)
    Term.(
      const run_main $ trace $ format $ policy $ duration $ seed
      $ parallel_jobs $ disks $ buses $ cache_mb $ nvram_mb $ iosched
      $ replacement $ cleaner $ sync_flush $ no_coalesce $ flush_window
      $ max_extent $ request_overhead $ fault_plan $ crash_at
      $ differential $ image_mb $ diff_speedup $ diff_report $ diff_skew
      $ stream $ trace_out $ trace_buffer $ show_cdf $ show_windows
      $ show_stats $ log_level)

let () = exit (Cmd.eval' cmd)
