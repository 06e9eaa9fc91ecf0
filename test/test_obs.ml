(* Tests for the structured event tracer: ring-buffer semantics, fleet
   determinism and the Chrome trace_event JSON export. *)

module Event = Capfs_obs.Event
module Tracer = Capfs_obs.Tracer
module Export = Capfs_obs.Export
module Experiment = Capfs_patsy.Experiment
module Fleet = Capfs_patsy.Fleet
module Synth = Capfs_trace.Synth

let hit i = Event.Cache_hit { cache = "c"; ino = 1; index = i }

(* {1 Ring buffer} *)

let test_ring_keeps_newest () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 10 do
    Tracer.emit tr ~time:(float_of_int i) (hit i)
  done;
  Alcotest.(check int) "length clamps at capacity" 4 (Tracer.length tr);
  Alcotest.(check int) "dropped = emitted - kept" 6 (Tracer.dropped tr);
  let evs = Tracer.events tr in
  Alcotest.(check (list int))
    "newest 4 events survive, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Event.seq) evs);
  List.iter
    (fun e ->
      Alcotest.(check (float 0.))
        "time matches seq" (float_of_int e.Event.seq) e.Event.time)
    evs

let test_ring_no_wrap () =
  let tr = Tracer.create ~capacity:8 () in
  for i = 1 to 3 do
    Tracer.emit tr ~time:0. (hit i)
  done;
  Alcotest.(check int) "length" 3 (Tracer.length tr);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tr);
  Alcotest.(check (list int))
    "seqs in order" [ 1; 2; 3 ]
    (List.map (fun e -> e.Event.seq) (Tracer.events tr))

let test_ring_clear () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 1 to 3 do
    Tracer.emit tr ~time:0. (hit i)
  done;
  Tracer.clear tr;
  Alcotest.(check int) "empty after clear" 0 (Tracer.length tr);
  Tracer.emit tr ~time:0. (hit 99);
  Alcotest.(check (list int))
    "sequence numbers keep counting" [ 4 ]
    (List.map (fun e -> e.Event.seq) (Tracer.events tr))

let test_null_tracer () =
  let tr = Tracer.null in
  Alcotest.(check bool) "null is disabled" false (Tracer.enabled tr);
  Tracer.emit tr ~time:1. (hit 1);
  Alcotest.(check int) "null buffers nothing" 0 (Tracer.length tr);
  Alcotest.(check (list pass)) "null has no events" [] (Tracer.events tr)

(* {1 Fleet determinism} *)

let small_config policy =
  {
    (Experiment.default policy) with
    Experiment.ndisks = 1;
    nbuses = 1;
    cache_mb = 4;
    nvram_mb = 1;
    seed = 7;
    trace_buffer = 4096;
  }

let gen name =
  Capfs_trace.Source.of_array ~name
    (Synth.generate ~seed:3 ~duration:60.
       { (Synth.profile_by_name name) with Synth.clients = 2; files = 20; dirs = 2 })

let pairs =
  [
    ("sprite-1a", Experiment.Ups);
    ("sprite-1a", Experiment.Write_delay);
    ("sprite-1b", Experiment.Ups);
  ]

let run_merged jobs =
  Fleet.merged_events
    (Fleet.run_matrix ~jobs ~config:small_config ~gen pairs)

let check_same_streams a b =
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (sa, (ea : Event.t)) (sb, (eb : Event.t)) ->
      Alcotest.(check int) "stream" sa sb;
      Alcotest.(check int) "seq" ea.Event.seq eb.Event.seq;
      Alcotest.(check (float 0.)) "time" ea.Event.time eb.Event.time;
      Alcotest.(check string)
        "kind" (Event.kind_name ea.Event.kind)
        (Event.kind_name eb.Event.kind);
      Alcotest.(check string)
        "source" (Event.source ea.Event.kind)
        (Event.source eb.Event.kind))
    a b

let test_fleet_merge_deterministic () =
  let seq = run_merged 1 and par = run_merged 4 in
  Alcotest.(check bool) "produced events" true (List.length seq > 0);
  check_same_streams seq par

let test_layers_covered () =
  let stream = run_merged 2 in
  let layers =
    List.sort_uniq compare
      (List.map
         (fun (_, e) -> Event.layer_name (Event.layer_of e.Event.kind))
         stream)
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("layer " ^ l ^ " present") true
        (List.mem l layers))
    [ "sched"; "cache"; "disk" ]

(* {1 Chrome trace_event JSON}

   The round-trip checks read the export back with
   {!Capfs_stats.Json}. *)

module Json = Capfs_stats.Json

let parse_json s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "export does not parse: %s" e

let member k v =
  match Json.member k v with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" k

let as_str = function Json.Str s -> s | _ -> Alcotest.fail "expected string"
let as_num = function Json.Num f -> f | _ -> Alcotest.fail "expected number"
let as_list = function Json.Arr l -> l | _ -> Alcotest.fail "expected array"

(* [Export.to_file]'s document, through a temporary file *)
let export_text stream =
  let path = Filename.temp_file "capfs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.to_file path stream;
      In_channel.with_open_bin path In_channel.input_all)

let test_chrome_json_roundtrip () =
  let events =
    [
      Event.{ time = 0.5; seq = 1; kind = Dispatch { tid = 1; thread = "exp" } };
      Event.
        {
          time = 1.0;
          seq = 2;
          kind = Cache_miss { cache = "cache"; ino = 3; index = 9 };
        };
      Event.
        {
          time = 1.25;
          seq = 3;
          kind =
            Disk_service
              { disk = "disk\"0"; lba = 64; sectors = 8; write = true;
                dur = 0.25 };
        };
      Event.
        {
          time = 2.0;
          seq = 4;
          kind = Seg_write { volume = "lfs0"; seg = 2; blocks = 127 };
        };
    ]
  in
  let text = export_text (Export.of_events events) in
  let doc = parse_json text in
  (* one record per line between the wrapper's two lines *)
  (match String.split_on_char '\n' text with
  | _ :: rest ->
    let records = List.filteri (fun i _ -> i < List.length rest - 2) rest in
    Alcotest.(check int) "one line per record" 8 (List.length records);
    List.iter
      (fun l ->
        let l =
          if String.ends_with ~suffix:"," l then
            String.sub l 0 (String.length l - 1)
          else l
        in
        ignore (as_str (member "ph" (parse_json l))))
      records
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check string)
    "displayTimeUnit" "ms"
    (as_str (member "displayTimeUnit" doc));
  let records = as_list (member "traceEvents" doc) in
  let meta, evs =
    List.partition (fun ev -> as_str (member "ph" ev) = "M") records
  in
  Alcotest.(check int) "one record per event" 4 (List.length evs);
  Alcotest.(check int) "one thread_name per distinct track" 4
    (List.length meta);
  List.iter
    (fun ev ->
      ignore (as_str (member "name" ev));
      ignore (as_str (member "cat" ev));
      ignore (as_str (member "ph" ev));
      ignore (as_num (member "ts" ev));
      ignore (as_num (member "pid" ev));
      ignore (as_num (member "tid" ev)))
    evs;
  (* track labels include the escaped component name *)
  Alcotest.(check bool) "thread_name metadata carries the disk name" true
    (List.exists
       (fun m -> as_str (member "name" (member "args" m)) = "disk\"0")
       meta);
  (* the disk service span: ph "X", ts at span start, dur 0.25 s in µs *)
  let span =
    List.find (fun ev -> as_str (member "ph" ev) = "X") evs
  in
  Alcotest.(check string) "span name" "service" (as_str (member "name" span));
  Alcotest.(check (float 1.)) "span dur µs" 250_000.
    (as_num (member "dur" span));
  Alcotest.(check (float 1.)) "span start µs" 1_000_000.
    (as_num (member "ts" span));
  Alcotest.(check string)
    "escaped disk name survives" "disk\"0"
    (as_str (member "disk" (member "args" span)));
  (* the instant events carry the scope field Perfetto requires *)
  let instant =
    List.find (fun ev -> as_str (member "ph" ev) = "i") evs
  in
  Alcotest.(check string) "instant scope" "t" (as_str (member "s" instant))

let test_pp_text () =
  let events =
    [
      Event.{ time = 0.5; seq = 1; kind = Dispatch { tid = 1; thread = "exp" } };
      Event.
        {
          time = 1.0;
          seq = 2;
          kind = Cache_miss { cache = "cache"; ino = 3; index = 9 };
        };
    ]
  in
  let out =
    Format.asprintf "%a" Export.pp_text (Export.of_events events)
  in
  List.iter
    (fun needle ->
      let contains =
        let nh = String.length out and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub out i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("text dump mentions " ^ needle) true contains)
    [ "dispatch"; "miss"; "sched"; "cache"; "exp" ]

let test_to_file_parses () =
  let results =
    Fleet.run_matrix ~jobs:2 ~config:small_config ~gen [ pairs |> List.hd ]
  in
  let stream = Fleet.merged_events results in
  let doc = parse_json (export_text stream) in
  let evs =
    List.filter
      (fun ev -> as_str (member "ph" ev) <> "M")
      (as_list (member "traceEvents" doc))
  in
  Alcotest.(check int)
    "every merged event exported" (List.length stream) (List.length evs)

let suite =
  [
    Alcotest.test_case "ring keeps newest on wrap" `Quick test_ring_keeps_newest;
    Alcotest.test_case "ring below capacity" `Quick test_ring_no_wrap;
    Alcotest.test_case "ring clear" `Quick test_ring_clear;
    Alcotest.test_case "null tracer is inert" `Quick test_null_tracer;
    Alcotest.test_case "fleet merge: -j 1 == -j 4" `Slow
      test_fleet_merge_deterministic;
    Alcotest.test_case "sched/cache/disk layers traced" `Slow
      test_layers_covered;
    Alcotest.test_case "chrome json round-trips" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "text dump" `Quick test_pp_text;
    Alcotest.test_case "to_file output parses" `Quick test_to_file_parses;
  ]
