module Stats = Capfs_stats

let cdf_series ?(points = 60) (r : Replay.result) =
  Stats.Sample_set.cdf_points r.Replay.latency ~points

let boundary_fractions (r : Replay.result) =
  ( Stats.Sample_set.fraction_le r.Replay.latency 0.002,
    Stats.Sample_set.fraction_le r.Replay.latency 0.017 )

let print_cdf ?points ~title ppf (r : Replay.result) =
  let cache_frac, rotation_frac = boundary_fractions r in
  Format.fprintf ppf "@[<v># %s@," title;
  Format.fprintf ppf "# ops=%d errors=%d mean=%.3fms@," r.Replay.operations
    r.Replay.errors
    (1000. *. Stats.Sample_set.mean r.Replay.latency);
  Format.fprintf ppf
    "# <=2ms (fs cache service): %.1f%%   <=17ms (one rotation): %.1f%%@,"
    (100. *. cache_frac) (100. *. rotation_frac);
  Format.fprintf ppf "# latency_ms cumulative_fraction@,";
  List.iter
    (fun (v, q) -> Format.fprintf ppf "%10.4f %8.5f@," (1000. *. v) q)
    (cdf_series ?points r);
  Format.fprintf ppf "@]"

let print_mean_table ?(scale = 1000.) ?(unit = "ms") ppf ~rows =
  match rows with
  | [] -> ()
  | (_, first_cols) :: _ ->
    let policies = List.map fst first_cols in
    Format.fprintf ppf "@[<v>%-12s" "trace";
    List.iter (fun p -> Format.fprintf ppf " %18s" p) policies;
    Format.fprintf ppf "@,";
    List.iter
      (fun (trace, cols) ->
        Format.fprintf ppf "%-12s" trace;
        List.iter
          (fun (_, mean) ->
            Format.fprintf ppf " %15.3f%s" (scale *. mean) unit)
          cols;
        Format.fprintf ppf "@,")
      rows;
    Format.fprintf ppf "@]"

let print_outcome_summary ppf (o : Experiment.outcome) =
  Format.fprintf ppf
    "%-18s mean=%8.3fms p95=%8.3fms ops=%7d hit=%5.1f%% flushed=%7d absorbed=%7d"
    o.Experiment.name
    (1000. *. Stats.Sample_set.mean o.Experiment.replay.Replay.latency)
    (1000.
     *. (try Stats.Sample_set.quantile o.Experiment.replay.Replay.latency 0.95
         with Invalid_argument _ -> 0.))
    o.Experiment.replay.Replay.operations
    (100. *. o.Experiment.cache_hit_rate)
    o.Experiment.blocks_flushed o.Experiment.writes_absorbed;
  if o.Experiment.replay.Replay.errors > 0 then
    Format.fprintf ppf " errors=%d(%s)"
      o.Experiment.replay.Replay.errors
      (String.concat ","
         (List.map
            (fun (kind, n) -> Printf.sprintf "%s:%d" kind n)
            o.Experiment.replay.Replay.errors_by_kind));
  if o.Experiment.replay.Replay.skipped_ops > 0 then
    Format.fprintf ppf " skipped=%d" o.Experiment.replay.Replay.skipped_ops

let print_windows ppf (r : Replay.result) =
  Format.fprintf ppf "@[<v># window_start_s  ops  mean_ms@,";
  List.iter
    (fun w ->
      Format.fprintf ppf "%14.0f %6d %8.3f@," w.Stats.Interval.start
        (Stats.Welford.count w.Stats.Interval.summary)
        (1000. *. Stats.Welford.mean w.Stats.Interval.summary))
    (Stats.Interval.windows r.Replay.windows);
  Format.fprintf ppf "@]"
