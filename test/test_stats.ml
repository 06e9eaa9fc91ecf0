(* Unit and property tests for capfs_stats. *)

open Capfs_stats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

let check_float ?(eps = 1e-9) what expected got =
  if not (feq ~eps expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected got

(* Welford *)

let test_welford_basic () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Welford.count w);
  check_float "mean" 5. (Welford.mean w);
  (* unbiased sample variance of that classic data set is 32/7 *)
  check_float ~eps:1e-9 "variance" (32. /. 7.) (Welford.variance w);
  check_float "min" 2. (Welford.min w);
  check_float "max" 9. (Welford.max w);
  check_float "total" 40. (Welford.total w)

let test_welford_empty () =
  let w = Welford.create () in
  Alcotest.(check int) "count" 0 (Welford.count w);
  check_float "mean" 0. (Welford.mean w);
  check_float "variance" 0. (Welford.variance w)

let test_welford_reset () =
  let w = Welford.create () in
  Welford.add w 10.;
  Welford.reset w;
  Alcotest.(check int) "count" 0 (Welford.count w);
  Welford.add w 3.;
  check_float "mean" 3. (Welford.mean w)

let test_welford_merge () =
  let a = Welford.create () and b = Welford.create () in
  List.iter (Welford.add a) [ 1.; 2.; 3. ];
  List.iter (Welford.add b) [ 10.; 20. ];
  let m = Welford.merge a b in
  let all = Welford.create () in
  List.iter (Welford.add all) [ 1.; 2.; 3.; 10.; 20. ];
  Alcotest.(check int) "count" (Welford.count all) (Welford.count m);
  check_float ~eps:1e-9 "mean" (Welford.mean all) (Welford.mean m);
  check_float ~eps:1e-9 "variance" (Welford.variance all) (Welford.variance m)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"welford matches naive mean/variance" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (n -. 1.)
      in
      feq ~eps:1e-6 mean (Welford.mean w)
      && (var < 1e-12 || abs_float (var -. Welford.variance w) /. var < 1e-6))

(* Histogram *)

let test_histogram_linear () =
  let h = Histogram.linear ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.; 10.; 100. ];
  Alcotest.(check int) "bucket0" 1 (Histogram.count h 0);
  Alcotest.(check int) "bucket1" 2 (Histogram.count h 1);
  Alcotest.(check int) "bucket9" 1 (Histogram.count h 9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "total" 7 (Histogram.total h)

let test_histogram_log () =
  let h = Histogram.log ~lo:1e-4 ~hi:10. ~per_decade:5 in
  Alcotest.(check int) "buckets" 25 (Histogram.buckets h);
  Histogram.add h 1e-4;
  Histogram.add h 0.99;
  Histogram.add h 0.;
  Alcotest.(check int) "underflow counts nonpositive" 1 (Histogram.underflow h);
  Alcotest.(check int) "total" 3 (Histogram.total h);
  let lo, hi = Histogram.bounds h 0 in
  check_float ~eps:1e-12 "first lo" 1e-4 lo;
  if not (hi > lo) then Alcotest.fail "bucket bounds ordered"

let test_histogram_weights_and_cdf () =
  let h = Histogram.linear ~lo:0. ~hi:4. ~buckets:4 in
  Histogram.add ~weight:3 h 0.5;
  Histogram.add ~weight:1 h 3.5;
  let cdf = Histogram.cdf h in
  Alcotest.(check int) "cdf points" 4 (List.length cdf);
  let _, f0 = List.nth cdf 0 in
  check_float "cdf after bucket0" 0.75 f0;
  let _, f3 = List.nth cdf 3 in
  check_float "cdf after bucket3" 1.0 f3

let test_histogram_quantile () =
  let h = Histogram.linear ~lo:0. ~hi:100. ~buckets:100 in
  for i = 0 to 99 do
    Histogram.add h (float_of_int i +. 0.5)
  done;
  let q50 = Histogram.quantile h 0.5 in
  if q50 < 45. || q50 > 55. then
    Alcotest.failf "median %g out of expected band" q50

(* Forked load-generator clients sum their latency histograms. *)
let test_histogram_merge () =
  let mk per_decade = Histogram.log ~lo:1e-6 ~hi:1e3 ~per_decade in
  let a = mk 20 and b = mk 20 in
  List.iter (Histogram.add a) [ 1e-4; 2e-3; 0. ];
  List.iter (Histogram.add b) [ 1e-4; 5e4 ];
  Histogram.merge ~into:a b;
  Alcotest.(check (list int))
    "total, underflow, overflow, shared bucket" [ 5; 1; 1; 2 ]
    Histogram.[ total a; underflow a; overflow a; count a 40 ];
  match Histogram.merge ~into:a (mk 10) with
  | () -> Alcotest.fail "merged histograms with different bounds"
  | exception Invalid_argument _ -> ()

(* Json *)

let parse_ok s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "parse: %s" e

let test_json_roundtrip () =
  let open Json in
  let doc =
    Obj
      [
        ("s", Str "q\"uote\\ \001 caf\xc3\xa9");
        ("n", Arr [ Num 0.; Num (-3.); Num 0.243152; Num 1e-7; Num 6.02e23 ]);
        ( "o",
          Obj [ ("t", Bool true); ("z", Null); ("e", Obj []); ("a", Arr []) ] );
      ]
  in
  let text = to_string doc in
  Alcotest.(check bool) "reads back equal" true (parse_ok text = doc);
  Alcotest.(check string) "layout"
    "{\n  \"s\": \"q\\\"uote\\\\ \\u0001 caf\xc3\xa9\",\n\
    \  \"n\": [\n    0,\n    -3,\n    0.243152,\n    1e-07,\n\
    \    6.02e+23\n  ],\n\
    \  \"o\": {\"t\": true, \"z\": null, \"e\": {}, \"a\": []}\n}\n"
    text;
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (parse_ok {|"\u00e9\u0041"|} = Str "\xc3\xa9A");
  Alcotest.(check bool) "num rounds to six digits" true
    (num Float.pi = Num 3.14159 && num Float.nan = Null);
  Alcotest.(check string)
    "a non-finite number prints null" "[null, null, null]"
    (compact
       (Arr [ Num Float.nan; Num Float.infinity; Num Float.neg_infinity ]));
  (* every byte, controls included, in both layouts *)
  let bytes = Str (String.init 256 Char.chr) in
  Alcotest.(check bool) "every byte round-trips" true
    (parse_ok (to_string bytes) = bytes && parse_ok (compact bytes) = bytes);
  List.iter
    (fun bad ->
      if Result.is_ok (parse bad) then Alcotest.failf "parsed %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"\\x\"" ]

(* Nested arrays and objects over strings of any bytes and finite
   numbers, integral (to 2^62) and fractional. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let number =
    oneof
      [
        map float_of_int int;
        map float_of_int small_signed_int;
        float_range (-1e3) 1e3;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) number;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           let sub g = list_size (int_bound 4) g in
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Json.Arr l) (sub (self (n / 3))));
               (2, map (fun l -> Json.Obj l) (sub (pair str (self (n / 3)))));
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"json prints and reads back equal" ~count:500
    (QCheck.make ~print:Json.compact gen_json)
    (fun v ->
      let line = Json.compact v in
      Json.parse (Json.to_string v) = Ok v
      && Json.parse line = Ok v
      && not (String.contains line '\n'))

(* BENCH_results.json has two writers, bench and pfs loadgen; each
   replaces only its own members. *)
let test_json_writers_keep_others () =
  let open Json in
  let path = Filename.temp_file "capfs_bench" ".json" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let update f =
    match update_file path f with
    | Ok () -> parse_ok (read ())
    | Error e -> Alcotest.failf "update_file: %s" e
  in
  let run ops = Obj [ ("ops_per_sec", Num ops) ] in
  let loadgen runs speedup =
    Obj
      [ ("runs", Arr runs); ("cache_speedup", Num 22.81); ("speedup", speedup) ]
  in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* a missing file starts empty *)
  Sys.remove path;
  let committed =
    Obj [ ("results", Arr []); ("loadgen", loadgen [ run 10. ] Null) ]
  in
  Alcotest.(check bool) "written" true
    (update (fun _ -> committed) = committed);
  let bench d = d |> set "results" (Arr [ Str "new" ]) |> set "jobs" (Num 2.) in
  let doc = update bench in
  Alcotest.(check bool) "bench keeps loadgen" true (doc = bench committed);
  Alcotest.(check bool) "loadgen keeps the rest" true
    (update (Capfs_pfs.Loadgen.splice [ run 20.; run 30. ])
    = set "loadgen" (loadgen [ run 20.; run 30. ] (Num 1.5)) doc);
  Alcotest.(check bool) "one run has no speedup" true
    (member "loadgen" (update (Capfs_pfs.Loadgen.splice [ run 40. ]))
    = Some (loadgen [ run 40. ] Null));
  (* a file that does not parse is refused and left alone *)
  Out_channel.with_open_bin path (fun oc -> output_string oc "{\"a\": ");
  Alcotest.(check bool) "bad file refused" true
    (Result.is_error (update_file path Fun.id));
  Alcotest.(check string) "bad file untouched" "{\"a\": " (read ())

let prop_histogram_mass_conserved =
  QCheck.Test.make ~name:"histogram conserves observation mass" ~count:200
    QCheck.(list (float_range (-10.) 110.))
    (fun xs ->
      let h = Histogram.linear ~lo:0. ~hi:100. ~buckets:13 in
      List.iter (Histogram.add h) xs;
      let in_buckets = ref 0 in
      for i = 0 to Histogram.buckets h - 1 do
        in_buckets := !in_buckets + Histogram.count h i
      done;
      Histogram.total h = List.length xs
      && !in_buckets + Histogram.underflow h + Histogram.overflow h
         = Histogram.total h)

let prop_histogram_cdf_monotone =
  QCheck.Test.make ~name:"histogram cdf is monotone and ends at <= 1" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0. 99.))
    (fun xs ->
      let h = Histogram.linear ~lo:0. ~hi:100. ~buckets:10 in
      List.iter (Histogram.add h) xs;
      let cdf = Histogram.cdf h in
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-12 && monotone rest
        | [ (_, last) ] -> last <= 1. +. 1e-12
        | [] -> true
      in
      monotone cdf)

(* Sample_set *)

let test_sample_set_quantiles () =
  let s = Sample_set.create () in
  for i = 1 to 100 do
    Sample_set.add s (float_of_int i)
  done;
  check_float "q0" 1. (Sample_set.quantile s 0.);
  check_float "q1" 100. (Sample_set.quantile s 1.);
  check_float ~eps:1e-9 "median" 50.5 (Sample_set.quantile s 0.5);
  check_float "mean" 50.5 (Sample_set.mean s);
  check_float "fraction_le 50" 0.5 (Sample_set.fraction_le s 50.);
  check_float "fraction_le 0" 0. (Sample_set.fraction_le s 0.);
  check_float "fraction_le 1000" 1. (Sample_set.fraction_le s 1000.)

let test_sample_set_reservoir () =
  let s = Sample_set.create ~cap:100 () in
  for i = 1 to 10_000 do
    Sample_set.add s (float_of_int i)
  done;
  Alcotest.(check int) "seen" 10_000 (Sample_set.count s);
  (* The reservoir median should be near the true median 5000.5. *)
  let med = Sample_set.quantile s 0.5 in
  if med < 3000. || med > 7000. then
    Alcotest.failf "reservoir median %g too far from 5000" med

let test_sample_set_cdf_points () =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 1.; 2.; 3.; 4. ];
  let pts = Sample_set.cdf_points s ~points:5 in
  Alcotest.(check int) "points" 5 (List.length pts);
  let v, q = List.nth pts 4 in
  check_float "last value" 4. v;
  check_float "last q" 1. q

let prop_sample_quantile_monotone =
  QCheck.Test.make ~name:"sample quantiles are monotone in q" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (float_range (-50.) 50.))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (q1, q2)) ->
      let s = Sample_set.create () in
      List.iter (Sample_set.add s) xs;
      let lo = Stdlib.min q1 q2 and hi = Stdlib.max q1 q2 in
      Sample_set.quantile s lo <= Sample_set.quantile s hi +. 1e-9)

(* Stat / Registry *)

let test_stat_records_everywhere () =
  let h = Histogram.linear ~lo:0. ~hi:10. ~buckets:10 in
  let st = Stat.with_histogram "x" h in
  Stat.record st 5.;
  Stat.record st 6.;
  Alcotest.(check int) "count" 2 (Stat.count st);
  Alcotest.(check int) "hist total" 2 (Histogram.total h);
  check_float "mean" 5.5 (Stat.mean st)

let test_registry () =
  let r = Registry.create () in
  Registry.register r (Stat.scalar "disk.queue");
  Registry.register r (Stat.scalar "cache.hits");
  (try
     Registry.register r (Stat.scalar "disk.queue");
     Alcotest.fail "duplicate registration should raise"
   with Invalid_argument _ -> ());
  Registry.record r "disk.queue" 4.;
  Registry.record r "missing.stat" 1.;
  (* dropped silently *)
  Registry.set_enabled r ~prefix:"disk." false;
  Registry.record r "disk.queue" 100.;
  (match Registry.find r "disk.queue" with
  | Some st -> Alcotest.(check int) "disabled drops" 1 (Stat.count st)
  | None -> Alcotest.fail "stat must exist");
  Alcotest.(check bool) "enabled query" true (Registry.enabled r "cache.hits");
  Alcotest.(check int) "all" 2 (List.length (Registry.all r))

let test_registry_report_zero_observation () =
  let r = Registry.create () in
  Registry.register r (Stat.scalar "disk.idle");
  Registry.register r (Stat.scalar "cache.hits");
  Registry.record r "cache.hits" 1.;
  let render ?all () =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    Registry.report ?all ppf r;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let default = render () in
  Alcotest.(check bool)
    "zero-observation stat skipped by default" false
    (contains default "disk.idle");
  let full = render ~all:true () in
  Alcotest.(check bool)
    "~all:true includes the idle stat" true
    (contains full "disk.idle: (no observations)")

let test_counter_handles () =
  let r = Registry.create () in
  Registry.register r (Stat.scalar "disk.seek");
  Registry.register r (Stat.scalar "cache.hits");
  let seek = Registry.counter r "disk.seek" in
  let hits = Registry.counter r "cache.hits" in
  Counter.record seek 4.;
  Counter.incr hits;
  Alcotest.(check int) "handle records" 1 (Stat.count (Counter.stat seek));
  (* set_enabled by prefix must reach already-resolved handles *)
  Registry.set_enabled r ~prefix:"disk." false;
  Counter.record seek 100.;
  Alcotest.(check int) "disabled handle drops" 1
    (Stat.count (Counter.stat seek));
  Counter.incr hits;
  Alcotest.(check int) "other prefix unaffected" 2
    (Stat.count (Counter.stat hits));
  Registry.set_enabled r ~prefix:"disk." true;
  Counter.record seek 5.;
  Alcotest.(check int) "re-enabled handle records" 2
    (Stat.count (Counter.stat seek));
  (* the null counter never records and never fails *)
  Counter.record Counter.null 1.;
  Counter.incr Counter.null;
  Alcotest.(check bool) "null disabled" false (Counter.is_enabled Counter.null);
  try
    ignore (Registry.counter r "no.such.stat");
    Alcotest.fail "unknown counter name must raise"
  with Invalid_argument _ -> ()

let test_registry_iter () =
  let r = Registry.create () in
  Registry.register r (Stat.scalar "b");
  Registry.register r (Stat.scalar "a");
  let names = ref [] in
  Registry.iter r (fun st -> names := Stat.name st :: !names);
  Alcotest.(check (list string)) "iter in sorted order" [ "a"; "b" ]
    (List.rev !names)

(* Interval *)

let test_interval_windows () =
  let iv = Interval.create ~width:900. () in
  Interval.add iv ~time:10. 1.;
  Interval.add iv ~time:899. 2.;
  Interval.add iv ~time:900. 3.;
  Interval.add iv ~time:2000. 4.;
  Interval.flush iv;
  let ws = Interval.windows iv in
  Alcotest.(check int) "windows" 3 (List.length ws);
  (match ws with
  | w1 :: w2 :: _ ->
    check_float "w1 start" 0. w1.Interval.start;
    Alcotest.(check int) "w1 count" 2 (Welford.count w1.Interval.summary);
    check_float "w2 start" 900. w2.Interval.start
  | _ -> Alcotest.fail "expected windows");
  Alcotest.(check int) "overall" 4 (Welford.count (Interval.overall iv))

let test_interval_late_observation () =
  let iv = Interval.create ~width:100. () in
  Interval.add iv ~time:50. 1.;
  Interval.add iv ~time:150. 2.;
  (* late arrival for an already-closed window: overall only *)
  Interval.add iv ~time:60. 3.;
  Interval.flush iv;
  Alcotest.(check int) "overall sees all" 3
    (Welford.count (Interval.overall iv));
  let ws = Interval.windows iv in
  let in_windows =
    List.fold_left (fun n w -> n + Welford.count w.Interval.summary) 0 ws
  in
  Alcotest.(check int) "windows saw 2" 2 in_windows

(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    if Prng.bits64 a <> Prng.bits64 b then Alcotest.fail "streams diverge"
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let c = Prng.split a in
  if Prng.bits64 a = Prng.bits64 c then
    Alcotest.fail "split stream should differ from parent"

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"prng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Prng.create ~seed in
      let x = Prng.int r bound in
      x >= 0 && x < bound)

let prop_prng_float_unit_interval =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Prng.create ~seed in
      let x = Prng.float r in
      x >= 0. && x < 1.)

let test_prng_choose_weights () =
  let r = Prng.create ~seed:3 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Prng.choose r [| 1.; 0.; 9. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never chosen" 0 counts.(1);
  if counts.(2) < counts.(0) then
    Alcotest.fail "weight 9 should dominate weight 1"

let qsuite = List.map QCheck_alcotest.to_alcotest
    [
      prop_welford_matches_naive;
      prop_json_round_trip;
      prop_histogram_mass_conserved;
      prop_histogram_cdf_monotone;
      prop_sample_quantile_monotone;
      prop_prng_int_in_range;
      prop_prng_float_unit_interval;
    ]

let suite =
  [
    Alcotest.test_case "welford basic" `Quick test_welford_basic;
    Alcotest.test_case "welford empty" `Quick test_welford_empty;
    Alcotest.test_case "welford reset" `Quick test_welford_reset;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "histogram linear" `Quick test_histogram_linear;
    Alcotest.test_case "histogram log" `Quick test_histogram_log;
    Alcotest.test_case "histogram weights+cdf" `Quick
      test_histogram_weights_and_cdf;
    Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "json round-trip and layout" `Quick test_json_roundtrip;
    Alcotest.test_case "json writers keep others' members" `Quick
      test_json_writers_keep_others;
    Alcotest.test_case "sample set quantiles" `Quick test_sample_set_quantiles;
    Alcotest.test_case "sample set reservoir" `Quick test_sample_set_reservoir;
    Alcotest.test_case "sample set cdf points" `Quick test_sample_set_cdf_points;
    Alcotest.test_case "stat records everywhere" `Quick
      test_stat_records_everywhere;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "registry report zero-observation" `Quick
      test_registry_report_zero_observation;
    Alcotest.test_case "counter handles" `Quick test_counter_handles;
    Alcotest.test_case "registry iter sorted" `Quick test_registry_iter;
    Alcotest.test_case "interval windows" `Quick test_interval_windows;
    Alcotest.test_case "interval late observation" `Quick
      test_interval_late_observation;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng choose weights" `Quick test_prng_choose_weights;
  ]
  @ qsuite
