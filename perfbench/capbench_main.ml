(* capbench: run one benchmark workload and print its metrics.

   capbench_main.exe --workload replay-disk|serve-rw|serve-shared
     --seed N --seconds S --trace 0|1 --pfs PATH --tmpdir DIR
     [--clk-tck HZ]

   Everything measured is printed as a table; the last line of stdout
   is one JSON object: {"correct", "attempted", "failed", "metrics"},
   the end-to-end metrics untraced, the per-layer metrics traced. The
   exit code is 0 only when every correctness check passed. perfbench/
   run.py builds this and the `pfs` binary, then calls it. *)

let workloads = [ "replay-disk"; "serve-rw"; "serve-shared" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and pfs = ref "" and tmpdir = ref "" and clk_tck = ref 100 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: the traced run (per-layer metrics)");
      ("--pfs", Arg.Set_string pfs, " the built pfs executable (serve-*)");
      ("--tmpdir", Arg.Set_string tmpdir, " private directory for image and socket");
      ("--clk-tck", Arg.Set_int clk_tck, " clock ticks per second of /proc CPU times");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "capbench_main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("capbench: unknown workload " ^ !workload);
    exit 2
  end;
  let serve = !workload <> "replay-disk" in
  if serve && (!pfs = "" || !tmpdir = "") then begin
    prerr_endline "capbench: serve workloads need --pfs and --tmpdir";
    exit 2
  end;
  (* a dead server must surface as EPIPE, not kill the generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Serve_load.cleanup;
  (* the wall-clock watchdog: never outlive run.py's limit *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "capbench: watchdog expired";
         Serve_load.cleanup ();
         Unix._exit 3));
  ignore (Unix.alarm (max 160 ((2 * int_of_float !seconds) + 60)));
  let traced = !trace = 1 in
  Serve_load.tracing := traced && serve;
  let m = Metrics.create () in
  let outcome =
    try
      match !workload with
      | "replay-disk" ->
        Replay_disk.run ~seed:!seed ~seconds:!seconds ~traced m
      | "serve-rw" ->
        Serve_load.run_rw ~pfs:!pfs ~dir:!tmpdir ~clk_tck:!clk_tck ~seed:!seed
          ~seconds:!seconds m
      | _ ->
        Serve_load.run_shared ~pfs:!pfs ~dir:!tmpdir ~clk_tck:!clk_tck
          ~seed:!seed ~seconds:!seconds m
    with e ->
      prerr_endline ("capbench: " ^ Printexc.to_string e);
      Serve_load.cleanup ();
      exit 2
  in
  let correct = !Metrics.failures = [] in
  Printf.printf "%s seed=%d seconds=%g trace=%d: %d attempted, %d failed, %s\n"
    !workload !seed !seconds !trace outcome.Metrics.attempted
    outcome.Metrics.failed
    (if correct then "correct" else "INCORRECT");
  Metrics.pp_table stdout m;
  print_endline
    (Metrics.result_json m ~traced ~correct ~attempted:outcome.Metrics.attempted
       ~failed:outcome.Metrics.failed);
  exit (if correct then 0 else 1)
