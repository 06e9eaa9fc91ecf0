(* Every metric the benchmark can print, with its unit. BENCHMARK.json
   at the repository root declares the same names and units;
   test_capbench checks that the two lists agree. *)

(* Printed in every untraced run, on every workload. *)
let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("cpu_us_per_op", "us");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* Printed in every traced run, on every workload. All are counts,
   ratios and shares: a metric of a layer the workload does not run
   reads 0, and a time that reads 0 on every run measures nothing, so
   latencies and waits of single layers go to the prose lines instead
   (see README.md). *)
let per_layer =
  [
    ("minor_words_per_op", "words");
    ("failed_frac", "fraction");
    (* sampled self time of the replay, by layer; "other" is the residual *)
    ("replay.self_frac", "fraction");
    ("sched.self_frac", "fraction");
    ("cache.self_frac", "fraction");
    ("lfs.self_frac", "fraction");
    ("driver.self_frac", "fraction");
    ("disk.self_frac", "fraction");
    ("core.self_frac", "fraction");
    ("other.self_frac", "fraction");
    (* block cache *)
    ("cache.hit_rate", "fraction");
    ("cache.evictions_per_op", "count");
    ("cache.flushed_blocks_per_op", "count");
    ("cache.absorbed_frac", "fraction");
    (* layout, driver, disk model *)
    ("lfs.segments_per_kop", "count");
    ("driver.requests_per_op", "count");
    ("disk.seeks_per_op", "count");
    (* GC *)
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    (* server CPU by thread; the three shares sum to 1 *)
    ("listener.cpu_frac", "fraction");
    ("shard.cpu_frac", "fraction");
    ("server.residual_frac", "fraction");
    ("listener.sys_frac", "fraction");
    ("shard.sys_frac", "fraction");
    ("server.rejected_frac", "fraction");
    ("wire.replies_per_write", "count");
    ("wire.copied_bytes_per_op", "bytes");
    (* leased client cache *)
    ("cc.hit_rate", "fraction");
    ("cc.msgs_per_op", "count");
    ("cc.msgs_per_send", "count");
    ("cc.invalidations_per_kop", "count");
    (* the generator: its CPU, and its spans, as shares of the window *)
    ("gen.core_frac", "fraction");
    ("gen.send_frac", "fraction");
    ("gen.recv_frac", "fraction");
    ("gen.decode_frac", "fraction");
    (* the tracer *)
    ("trace.overhead_frac", "fraction");
  ]

let all = end_to_end @ per_layer

let unit_of name = List.assoc_opt name all

let valid_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

(* {1 One run's measurements} *)

(* What a workload reports besides its metrics. *)
type outcome = { attempted : int; failed : int }

(* Correctness checks that failed so far; any one fails the run. *)
let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("capbench: check failed: " ^ msg);
      failures := msg :: !failures)
    fmt

type t = { values : (string, float) Hashtbl.t }

let create () = { values = Hashtbl.create 64 }

let set t name v =
  if unit_of name = None then invalid_arg ("Metrics.set: undeclared " ^ name);
  Hashtbl.replace t.values name v

let find t name = Hashtbl.find_opt t.values name

(* JSON has no NaN or infinity; a non-finite figure is a harness bug. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Metrics.json_number: non-finite value"

(* Human-readable lines for everything measured, declared order. *)
let pp_table oc t =
  List.iter
    (fun (name, unit) ->
      match find t name with
      | Some v -> Printf.fprintf oc "  %-28s %14.6g %s\n" name v unit
      | None -> ())
    all

(* The result line. [end_to_end] metrics must all have been measured;
   a per-layer metric a workload does not exercise reads 0. *)
let result_json t ~traced ~correct ~attempted ~failed =
  let spec = if traced then per_layer else end_to_end in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit) ->
      let v =
        match find t name with
        | Some v -> v
        | None when traced -> 0.
        | None -> invalid_arg ("Metrics.result_json: unmeasured " ^ name)
      in
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
        (json_number v) unit)
    spec;
  Buffer.add_string b "}}";
  Buffer.contents b
