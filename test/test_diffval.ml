(* Tests for the differential sim-vs-real validation harness: the pure
   snapshot-diff core, the tolerance table, and a short end-to-end run
   of the same synthesized trace through Patsy and PFS. *)

module Snapshot = Capfs_stats.Snapshot
module Names = Capfs_stats.Names
module Registry = Capfs_stats.Registry
module Stat = Capfs_stats.Stat
module Synth = Capfs_trace.Synth
module Experiment = Capfs_patsy.Experiment
module Diffval = Capfs_diffval.Diffval
module Pfs = Capfs_pfs.Pfs
module Stack = Capfs.Stack

module Json = Capfs_stats.Json

(* [v] printed and read back: the tests check the document a reader
   gets, not the value before printing *)
let reparse v =
  match Json.parse (Json.to_string v) with
  | Ok v -> v
  | Error e -> Alcotest.failf "report does not parse: %s" e

let snap entries =
  Array.of_list
    (List.map
       (fun (k, c) ->
         {
           Snapshot.e_key = k;
           e_count = c;
           e_total = float_of_int c;
           e_mean = (if c = 0 then 0. else 1.);
         })
       entries)

(* Canonical instance names are what keeps the two halves' registries
   key-compatible. *)
let test_names () =
  Alcotest.(check string) "cache" "cache" Names.cache;
  Alcotest.(check string) "driver" "driver0" (Names.driver 0);
  Alcotest.(check string) "lfs" "lfs3" (Names.lfs 3);
  Alcotest.(check string) "disk" "disk1" (Names.disk 1);
  Alcotest.(check string) "bus" "bus0" (Names.bus 0)

let test_policy_visible () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " visible") true (Snapshot.policy_visible k))
    [ "cache.hits"; "driver0.merged"; "lfs0.checkpoint" ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " hidden") false (Snapshot.policy_visible k))
    [ "disk0.seek"; "bus0.transfer"; "replay.latency" ]

let test_snapshot_capture_and_json () =
  let r = Registry.create () in
  let s = Stat.scalar "cache.hits" in
  Registry.register r s;
  Stat.record s 1.;
  Stat.record s 2.;
  let d = Stat.scalar "disk0.seek" in
  Registry.register r d;
  Stat.record d 5.;
  let all = Snapshot.capture r in
  Alcotest.(check (list string))
    "all keys" [ "cache.hits"; "disk0.seek" ] (Snapshot.keys all);
  let vis = Snapshot.capture ~filter:Snapshot.policy_visible r in
  Alcotest.(check (list string)) "filtered" [ "cache.hits" ] (Snapshot.keys vis);
  (match Snapshot.find vis "cache.hits" with
  | None -> Alcotest.fail "cache.hits missing"
  | Some e ->
      Alcotest.(check int) "count" 2 e.Snapshot.e_count;
      Alcotest.(check (float 1e-9)) "total" 3. e.Snapshot.e_total;
      Alcotest.(check (float 1e-9)) "mean" 1.5 e.Snapshot.e_mean);
  match reparse (Snapshot.to_json vis) with
  | Json.Arr [ entry ] ->
    Alcotest.(check bool)
      "json has key" true
      (Json.member "key" entry = Some (Json.Str "cache.hits"));
    Alcotest.(check bool)
      "json has count" true
      (Json.member "count" entry = Some (Json.Num 2.))
  | _ -> Alcotest.fail "expected one snapshot entry"

let test_tolerance_resolution () =
  (match Diffval.tolerance_for [] "cache.hits" with
  | Diffval.Within _ -> ()
  | _ -> Alcotest.fail "hits should be gated Within");
  (match Diffval.tolerance_for [] "driver0.wait" with
  | Diffval.Informational -> ()
  | _ -> Alcotest.fail "wait should be informational");
  match Diffval.tolerance_for [ ("hits", Diffval.Exact) ] "cache.hits" with
  | Diffval.Exact -> ()
  | _ -> Alcotest.fail "override should win"

let test_diff_equal_within_tolerance () =
  let patsy = snap [ ("cache.hits", 100); ("cache.flushed_blocks", 50) ] in
  let pfs = snap [ ("cache.hits", 104); ("cache.flushed_blocks", 52) ] in
  let verdicts, only_p, only_f = Diffval.diff_snapshots ~patsy ~pfs () in
  Alcotest.(check (list string)) "no drift p" [] only_p;
  Alcotest.(check (list string)) "no drift f" [] only_f;
  Alcotest.(check bool) "within tolerance" true (Diffval.verdicts_ok verdicts)

(* A perturbed snapshot must fail the diff: this is the harness's
   self-test — if it passed everything, it would prove nothing. *)
let test_diff_perturbed_fails () =
  let patsy = snap [ ("cache.hits", 100); ("cache.flushed_blocks", 50) ] in
  let pfs = snap [ ("cache.hits", 100); ("cache.flushed_blocks", 200) ] in
  let verdicts, _, _ = Diffval.diff_snapshots ~patsy ~pfs () in
  Alcotest.(check bool) "perturbed fails" false (Diffval.verdicts_ok verdicts);
  let bad =
    List.filter (fun v -> not v.Diffval.v_ok) verdicts |> List.map (fun v -> v.Diffval.v_key)
  in
  Alcotest.(check (list string)) "the right counter" [ "cache.flushed_blocks" ] bad

let test_diff_key_drift_reported () =
  let patsy = snap [ ("cache.hits", 10); ("lfs0.checkpoint", 2) ] in
  let pfs = snap [ ("cache.hits", 10); ("jfs.commits", 4) ] in
  let _, only_p, only_f = Diffval.diff_snapshots ~patsy ~pfs () in
  Alcotest.(check (list string)) "patsy-only" [ "lfs0.checkpoint" ] only_p;
  Alcotest.(check (list string)) "pfs-only" [ "jfs.commits" ] only_f

let test_config ?(policy = Experiment.Nvram_partial) () =
  let d = Diffval.default ~policy () in
  {
    d with
    Diffval.image_mb = 24;
    pfs_clock = `Virtual;
  }

let short_trace () = Synth.generate ~seed:11 ~duration:90. Synth.sprite_1a

(* The tentpole, end to end: same trace, two engines, equal key sets,
   every gated counter within tolerance, both halves fsck-clean. *)
let test_end_to_end_equivalent () =
  let records = short_trace () in
  match
    Diffval.run ~config:(test_config ()) ~trace_name:"unit"
      (Capfs_trace.Source.of_array records)
  with
  | Error e -> Alcotest.failf "harness failure: %s" (Capfs_core.Errno.to_string e)
  | Ok r ->
      Alcotest.(check (list string)) "no patsy-only keys" [] r.Diffval.r_only_patsy;
      Alcotest.(check (list string)) "no pfs-only keys" [] r.Diffval.r_only_pfs;
      Alcotest.(check (list string))
        "identical key sets"
        (Snapshot.keys r.Diffval.r_patsy.Diffval.s_snapshot)
        (Snapshot.keys r.Diffval.r_pfs.Diffval.s_snapshot);
      Alcotest.(check (list string))
        "patsy fsck clean" [] r.Diffval.r_patsy.Diffval.s_fsck_errors;
      Alcotest.(check (list string))
        "pfs fsck clean" [] r.Diffval.r_pfs.Diffval.s_fsck_errors;
      Alcotest.(check bool) "equivalent" true r.Diffval.r_ok;
      (* the JSON report round-trips the verdict *)
      let json = reparse (Diffval.to_json r) in
      Alcotest.(check bool)
        "json ok flag" true
        (Json.member "ok" json = Some (Json.Bool true));
      Alcotest.(check bool)
        "json has verdicts" true
        (match Json.member "verdicts" json with
        | Some (Json.Arr l) -> List.length l = List.length r.Diffval.r_verdicts
        | _ -> false)

(* Deliberately skew one policy parameter in the PFS half only: the
   harness must notice, or it is not validating anything. *)
let test_end_to_end_skew_detected () =
  let records = Synth.generate ~seed:11 ~duration:60. Synth.sprite_1a in
  let run skew =
    Diffval.run ~config:(test_config ()) ~skew ~trace_name:"unit-skew"
      (Capfs_trace.Source.of_array records)
  in
  (match run [ "seg-blocks=32" ] with
  | Error e ->
      Alcotest.failf "harness failure: %s" (Capfs_core.Errno.to_string e)
  | Ok r ->
      Alcotest.(check bool) "marked skewed" true r.Diffval.r_skewed;
      Alcotest.(check bool) "drift detected" false r.Diffval.r_ok);
  (* a setting Pfs.Config.of_args refuses is a harness failure *)
  List.iter
    (fun bad ->
      match run [ bad ] with
      | Error Capfs_core.Errno.EINVAL -> ()
      | _ -> Alcotest.failf "skew %S should be refused" bad)
    [ "no-such-knob=1"; "seg-blocks=many"; "no-coalesce" ]

let test_empty_trace_is_einval () =
  match Diffval.run ~trace_name:"empty" (Capfs_trace.Source.of_array [||]) with
  | Error Capfs_core.Errno.EINVAL -> ()
  | Error e ->
      Alcotest.failf "expected EINVAL, got %s" (Capfs_core.Errno.to_string e)
  | Ok _ -> Alcotest.fail "empty trace must be refused"

(* One stack recipe, two config records: under every policy, the knobs
   the Patsy half projects from diffval's base config are the knobs the
   PFS half projects from the config diffval translates it into. *)
let test_halves_project_one_stack () =
  List.iter
    (fun policy ->
      let cfg = Diffval.default ~policy () in
      let patsy = Experiment.stack_config cfg.Diffval.base in
      let pfs =
        Pfs.Config.stack_config (Diffval.pfs_config cfg ~image:"unused.img")
      in
      let check what same =
        Alcotest.(check bool)
          (Experiment.policy_name policy ^ ": " ^ what) true same
      in
      check "cache" (patsy.Stack.cache = pfs.Stack.cache);
      check "lfs" (patsy.Stack.lfs = pfs.Stack.lfs);
      check "iosched" (patsy.Stack.iosched = pfs.Stack.iosched);
      check "replacement" (patsy.Stack.replacement = pfs.Stack.replacement);
      check "seed" (patsy.Stack.seed = pfs.Stack.seed))
    Experiment.all_policies

let suite =
  [
    Alcotest.test_case "canonical instance names" `Quick test_names;
    Alcotest.test_case "policy-visible filter" `Quick test_policy_visible;
    Alcotest.test_case "snapshot capture and json" `Quick
      test_snapshot_capture_and_json;
    Alcotest.test_case "tolerance resolution" `Quick test_tolerance_resolution;
    Alcotest.test_case "diff within tolerance" `Quick
      test_diff_equal_within_tolerance;
    Alcotest.test_case "perturbed snapshot fails" `Quick
      test_diff_perturbed_fails;
    Alcotest.test_case "key drift reported" `Quick test_diff_key_drift_reported;
    Alcotest.test_case "end-to-end equivalent" `Slow test_end_to_end_equivalent;
    Alcotest.test_case "end-to-end skew detected" `Slow
      test_end_to_end_skew_detected;
    Alcotest.test_case "empty trace refused" `Quick test_empty_trace_is_einval;
    Alcotest.test_case "both halves project one stack" `Quick
      test_halves_project_one_stack;
  ]
