(* Tests of the benchmark's own helpers. Run by `dune runtest`. *)

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n" name
  | exception e ->
    incr failures;
    Printf.printf "FAIL %s: %s\n" name (Printexc.to_string e)

let expect what cond = if not cond then failwith what

let float_eq a b = Float.abs (a -. b) < 1e-12

let () =
  test "percentile: nearest rank on 1..100" (fun () ->
      let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
      expect "p50" (Samples.percentile a 0.5 = 50.);
      expect "p99" (Samples.percentile a 0.99 = 99.);
      expect "p100" (Samples.percentile a 1.0 = 100.);
      expect "p0" (Samples.percentile a 0.0 = 1.);
      expect "p1" (Samples.percentile a 0.01 = 1.);
      expect "p99.9" (Samples.percentile a 0.999 = 100.));
  test "percentile: small and unsorted inputs" (fun () ->
      let s = Samples.create () in
      List.iter (Samples.add s) [ 3.; 1.; 2. ];
      expect "count" (Samples.count s = 3);
      expect "p50 of 3" (Samples.quantile s 0.5 = 2.);
      expect "p99 of 3" (Samples.quantile s 0.99 = 3.);
      let one = Array.make 1 7. in
      expect "single" (Samples.percentile one 0.5 = 7.);
      let big = Samples.create () in
      for i = 10_000 downto 1 do
        Samples.add big (float_of_int i)
      done;
      expect "grows" (Samples.count big = 10_000);
      expect "p99 of 10k" (Samples.quantile big 0.99 = 9900.);
      expect "empty raises"
        (match Samples.percentile [||] 0.5 with
        | _ -> false
        | exception Invalid_argument _ -> true));
  test "median: odd and even" (fun () ->
      expect "odd" (Samples.median [ 5.; 1.; 3. ] = 3.);
      expect "even" (float_eq (Samples.median [ 4.; 1.; 3.; 2. ]) 2.5));
  test "zipf: table and draws repeat for a seed" (fun () ->
      let cdf = Streams.zipf_cdf ~n:64 ~theta:0.99 in
      expect "ends at 1" (cdf.(63) = 1.0);
      expect "ascending"
        (Array.for_all Fun.id (Array.init 63 (fun i -> cdf.(i) <= cdf.(i + 1))));
      let draws seed =
        let rng = Random.State.make [| seed |] in
        List.init 2000 (fun _ -> Streams.zipf_pick cdf rng)
      in
      expect "same seed" (draws 7 = draws 7);
      expect "other seed" (draws 7 <> draws 8);
      let d = draws 7 in
      let count k = List.length (List.filter (( = ) k) d) in
      expect "rank 0 hottest" (count 0 > count 1 && count 1 > count 10);
      expect "in range" (List.for_all (fun k -> k >= 0 && k < 64) d));
  test "op streams repeat for a seed" (fun () ->
      let take seed =
        let next =
          Streams.shared_ops ~seed ~clients:2 ~files:64 ~theta:0.99
            ~write_frac:0.02
        in
        List.init 5000 (fun _ -> next ())
      in
      let a = take 3 in
      expect "same seed" (a = take 3);
      expect "other seed" (a <> take 4);
      let writes = List.length (List.filter (fun o -> o.Streams.write) a) in
      expect "about 2% writes" (writes > 50 && writes < 200);
      expect "both clients"
        (List.exists (fun o -> o.Streams.client = 0) a
        && List.exists (fun o -> o.Streams.client = 1) a);
      let p = Streams.rw_payload ~bytes:4096 in
      expect "payload repeats"
        (p ~seed:1 ~conn:0 ~file:2 ~cycle:3 = p ~seed:1 ~conn:0 ~file:2 ~cycle:3);
      expect "payload changes per cycle"
        (p ~seed:1 ~conn:0 ~file:2 ~cycle:3 <> p ~seed:1 ~conn:0 ~file:2 ~cycle:4);
      expect "payload size" (String.length (p ~seed:1 ~conn:0 ~file:0 ~cycle:0) = 4096);
      expect "fill bytes differ per version"
        (Streams.fill_byte 5 <> Streams.fill_byte 6));
  test "proc stat: comm with spaces and parentheses" (fun () ->
      let tail = " S 1 2 3 4 5 6 7 8 9 10 1234 567 0 0 20 0 1 0 99 1000 5" in
      let parse comm = Procfs.parse_stat ("4242 (" ^ comm ^ ")" ^ tail) in
      List.iter
        (fun comm ->
          match parse comm with
          | Ok (c, cpu) ->
            expect ("comm " ^ comm) (c = comm);
            expect "utime" (cpu.Procfs.utime = 1234);
            expect "stime" (cpu.Procfs.stime = 567)
          | Error e -> failwith e)
        [ "pfs"; "pfs serve"; "a) b"; "x (y) z"; ") 1 2 3 )"; "" ];
      expect "garbage rejected" (Result.is_error (Procfs.parse_stat "no parens"));
      expect "short rejected" (Result.is_error (Procfs.parse_stat "1 (x) S 1 2"));
      let self = Procfs.process_cpu (Unix.getpid ()) in
      expect "self readable" (self.Procfs.utime >= 0 && self.Procfs.stime >= 0);
      expect "own task listed"
        (List.mem_assoc (Unix.getpid ()) (Procfs.task_cpus (Unix.getpid ()))));
  test "proc status: VmHWM" (fun () ->
      expect "parse"
        (Procfs.status_kb "Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n" "VmHWM"
        = Some 2048);
      expect "self" (Procfs.peak_rss_mb "self" > 0.));
  test "sampler: innermost lib/ frame picks the layer" (fun () ->
      let layer fs = Sampler.layers.(Sampler.classify fs) in
      expect "cache"
        (layer [ "perfbench/sampler.ml"; "lib/cache/dlist.ml"; "lib/sched/sched.ml" ]
        = "cache");
      expect "no lib frame" (layer [ "stdlib.ml"; "perfbench/replay_disk.ml" ] = "other");
      expect "unnamed lib file" (layer [ "lib/stats/welford.ml"; "lib/cache/cache.ml" ] = "other");
      expect "empty" (layer [] = "other");
      expect "every layer has a metric"
        (Array.for_all
           (fun l -> Metrics.unit_of (l ^ ".self_frac") <> None)
           Sampler.layers));
  test "metric names are valid and declared in BENCHMARK.json" (fun () ->
      let j = Json_lite.parse (Procfs.read_file "../BENCHMARK.json") in
      let declared key =
        Option.fold ~none:[] ~some:Json_lite.to_list (Json_lite.member key j)
        |> List.map (fun e ->
               let s k = Option.get (Option.bind (Json_lite.member k e) Json_lite.to_string) in
               (s "name", s "unit"))
      in
      List.iter
        (fun (name, _) -> expect ("name " ^ name) (Metrics.valid_name name))
        Metrics.all;
      expect "end_to_end matches" (declared "end_to_end" = Metrics.end_to_end);
      expect "per_layer matches" (declared "per_layer" = Metrics.per_layer));
  test "result line: exact keys, every metric" (fun () ->
      let m = Metrics.create () in
      List.iter (fun (n, _) -> Metrics.set m n 1.5) Metrics.end_to_end;
      let line =
        Metrics.result_json m ~traced:false ~correct:true ~attempted:10 ~failed:0
      in
      (match Json_lite.parse line with
      | Json_lite.Obj kvs ->
        expect "keys"
          (List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]);
        (match List.assoc "metrics" kvs with
        | Json_lite.Obj ms ->
          expect "all end-to-end"
            (List.map fst ms = List.map fst Metrics.end_to_end)
        | _ -> failwith "metrics not an object")
      | _ -> failwith "not an object");
      let traced =
        Metrics.result_json m ~traced:true ~correct:true ~attempted:10 ~failed:0
      in
      match Json_lite.member "metrics" (Json_lite.parse traced) with
      | Some (Json_lite.Obj ms) ->
        expect "all per-layer" (List.map fst ms = List.map fst Metrics.per_layer)
      | _ -> failwith "traced metrics missing");
  if !failures > 0 then exit 1
