(* A SIGPROF sampling profiler for the single-domain replay. Each
   ITIMER_PROF tick charges one sample to the layer of the innermost
   frame of the interrupted call stack that lies in the repository's
   lib/ tree; samples with no lib/ frame, or whose frame is in no named
   layer, go to "other", so the shares always sum to 1. OCaml runs the
   handler at the next poll point of the interrupted code, which is
   where the sample is taken. Only meaningful where one domain runs. *)

let layers =
  [| "replay"; "sched"; "cache"; "lfs"; "driver"; "disk"; "core"; "other" |]

let other = Array.length layers - 1

let index name =
  let rec go i = if layers.(i) = name then i else go (i + 1) in
  go 0

(* Source files by layer (see README.md's layer table). *)
let files =
  [
    ("replay", [ "lib/patsy/replay.ml"; "lib/trace/synth.ml";
                 "lib/trace/source.ml"; "lib/trace/record.ml" ]);
    ("sched", [ "lib/sched/sched.ml"; "lib/sched/heap.ml";
                "lib/sched/mailbox.ml"; "lib/sched/sync.ml" ]);
    ("cache", [ "lib/cache/cache.ml"; "lib/cache/replacement.ml";
                "lib/cache/dlist.ml"; "lib/cache/block.ml" ]);
    ("lfs", [ "lib/layout/lfs.ml"; "lib/layout/multiplex.ml";
              "lib/layout/inode.ml"; "lib/layout/codec.ml";
              "lib/layout/layout.ml" ]);
    ("driver", [ "lib/disk/driver.ml"; "lib/disk/iosched.ml";
                 "lib/disk/iorequest.ml" ]);
    ("disk", [ "lib/disk/sim_disk.ml"; "lib/disk/disk_model.ml";
               "lib/disk/seek.ml"; "lib/disk/geometry.ml"; "lib/disk/bus.ml" ]);
    ("core", [ "lib/core/client.ml"; "lib/core/file.ml";
               "lib/core/namespace.ml"; "lib/core/file_table.ml";
               "lib/core/dir.ml"; "lib/core/fsys.ml" ]);
  ]

let by_file =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (layer, fs) -> List.iter (fun f -> Hashtbl.replace t f (index layer)) fs)
    files;
  t

let is_lib file = String.length file > 4 && String.sub file 0 4 = "lib/"

(* [classify filenames] — the layer of the first (innermost) lib/ file
   in a stack listed innermost first. *)
let classify filenames =
  match List.find_opt is_lib filenames with
  | Some f -> Option.value (Hashtbl.find_opt by_file f) ~default:other
  | None -> other

let counts = Array.make (Array.length layers) 0

let stack_files () =
  match Printexc.backtrace_slots (Printexc.get_callstack 48) with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun slot ->
           Option.map
             (fun l -> l.Printexc.filename)
             (Printexc.Slot.location slot))

let on_tick _ =
  let i = classify (stack_files ()) in
  counts.(i) <- counts.(i) + 1

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let start ~interval =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  set_timer interval

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let total () = Array.fold_left ( + ) 0 counts

(* [(layer, share)] for every layer; all 0 before the first sample. *)
let shares () =
  let n = total () in
  Array.to_list
    (Array.mapi
       (fun i c ->
         (layers.(i), if n = 0 then 0. else float_of_int c /. float_of_int n))
       counts)
