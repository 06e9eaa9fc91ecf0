module Sched = Capfs_sched.Sched
module Record = Capfs_trace.Record
module Sim_disk = Capfs_disk.Sim_disk
module Lfs = Capfs_layout.Lfs
module Inode = Capfs_layout.Inode
module Stack = Capfs.Stack
module Client = Capfs.Client
module Namespace = Capfs.Namespace
module Errno = Capfs_core.Errno

let src = Logs.Src.create "capfs.crash" ~doc:"crash-recovery experiment"

module Log = (val Logs.src_log src : Logs.LOG)

type violation = { v_path : string; v_expected : string; v_found : string }

type report = {
  crash_time : float;
  applied_ops : int;
  floor_size : int;
  floor_synced : bool;
  recoveries : (string * Lfs.recovery_report) list;
  failed_volumes : (string * Errno.t) list;
  violations : violation list;
  ok : bool;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s: expected %s, found %s" v.v_path v.v_expected v.v_found

(* {2 The shadow model}

   The shadow model is the durable floor: a snapshot of the namespace
   (path, kind, size) taken just before a whole-system sync that
   completes before the crash. Any path mutated at or after the walk
   lands in [touched] (via the replay's observe hook) and is excluded.
   What remains — state the file system acknowledged as stable and then
   never changed — MUST survive the crash verbatim; everything else is
   legitimately undefined, exactly like a real power cut. *)

type floor_entry = { fl_path : string; fl_kind : Inode.kind; fl_size : int }

let touch touched (r : Record.t) =
  let add path = Hashtbl.replace touched (Namespace.normalize path) () in
  match r.Record.op with
  | Record.Write { path; _ }
  | Record.Truncate { path; _ }
  | Record.Delete { path }
  | Record.Mkdir { path }
  | Record.Rmdir { path } -> add path
  | Record.Open { path; mode = Record.Write_only | Record.Read_write } ->
    add path
  | Record.Open _ | Record.Close _ | Record.Read _ | Record.Stat _ -> ()

let walk_namespace client =
  let acc = ref [] in
  let rec go path =
    List.iter
      (fun e ->
        let full =
          (if path = "/" then "" else path) ^ "/" ^ e.Capfs.Dir.name
        in
        let size =
          if e.Capfs.Dir.kind = Inode.Regular then
            (Client.stat_exn client full).Client.st_size
          else 0
        in
        acc :=
          { fl_path = full; fl_kind = e.Capfs.Dir.kind; fl_size = size }
          :: !acc;
        if e.Capfs.Dir.kind = Inode.Directory then go full)
      (Client.readdir_exn client path)
  in
  go "/";
  !acc

let kind_name = function
  | Inode.Regular -> "regular"
  | Inode.Directory -> "directory"
  | Inode.Symlink -> "symlink"
  | Inode.Multimedia -> "multimedia"

(* Every floor entry the replay left untouched must have survived the
   crash: same kind and, for a regular file, same size. *)
let check_floor client ~touched floor =
  let check fl =
    let violation expected found =
      Some { v_path = fl.fl_path; v_expected = expected; v_found = found }
    in
    let expected = kind_name fl.fl_kind in
    match Client.stat client fl.fl_path with
    | Error e -> violation expected ("error " ^ Errno.to_string e)
    | Ok st when st.Client.st_kind <> fl.fl_kind ->
      violation expected (kind_name st.Client.st_kind)
    | Ok st when fl.fl_kind = Inode.Regular && st.Client.st_size <> fl.fl_size
      ->
      violation
        (Printf.sprintf "size %d" fl.fl_size)
        (Printf.sprintf "size %d" st.Client.st_size)
    | Ok _ -> None
  in
  List.filter_map
    (fun fl -> if Hashtbl.mem touched fl.fl_path then None else check fl)
    floor

(* {2 The experiment} *)

let run ?(config = Experiment.default Experiment.Write_delay) ?sync_at ~trace
    plan =
  let crash_at =
    match plan.Capfs_fault.Plan.crash_at with
    | Some t when t > 0. -> t
    | _ -> invalid_arg "Crash.run: the fault plan must set crash_at > 0"
  in
  let sync_at =
    match sync_at with Some t -> t | None -> crash_at /. 2.
  in
  if sync_at >= crash_at then
    invalid_arg "Crash.run: sync_at must fall before crash_at";
  let cfg = { config with Experiment.fault_plan = Some plan } in
  (* {3 Phase 1: run the workload into the crash} *)
  let sched =
    Sched.create ~seed:cfg.Experiment.seed ~clock:`Virtual
      ~injector:(Experiment.injector_of cfg) ()
  in
  let farm = ref None in
  let touched : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let applied = ref 0 in
  let observe r =
    incr applied;
    touch touched r
  in
  let floor = ref [] and floor_synced = ref false in
  ignore
    (Sched.spawn sched ~name:"crash.workload" (fun () ->
         (* formatting the volumes performs driver I/O, so the stack
            must be mounted inside a fibre *)
         let f = Experiment.build_farm ~backing:true sched cfg in
         let client = Stack.mount f.Experiment.f_stack Stack.Format in
         farm := Some (f, client);
         (* crash experiments need real payloads: summaries and file
            contents must actually reach the backing stores *)
         ignore
           (Replay.run ~real_data:true ~observe client
              (Capfs_trace.Source.of_array trace))));
  ignore
    (Sched.spawn sched ~name:"crash.floor" (fun () ->
         Sched.sleep sched sync_at;
         let client =
           match !farm with
           | Some (_, client) -> client
           | None -> failwith "Crash.run: farm not built by sync_at"
         in
         (* mutations from here on are not part of the floor *)
         Hashtbl.reset touched;
         floor := walk_namespace client;
         match Client.sync client with
         | Ok () -> floor_synced := true
         | Error e ->
           Log.warn (fun m ->
               m "floor sync failed (%a); shadow check is vacuous" Errno.pp e)));
  (* the power cut: stop dispatching at the crash instant and abandon
     the scheduler, fibres, caches — everything volatile *)
  Sched.run ~until:crash_at sched;
  let snapshots =
    match !farm with
    | None -> failwith "Crash.run: the workload never started"
    | Some (farm, _) ->
      Array.map
        (fun d ->
          match Sim_disk.store_snapshot d with
          | Some s -> s
          | None -> assert false (* farm was built with ~backing:true *))
        farm.Experiment.f_disks
  in
  Log.info (fun m ->
      m "crashed at t=%g: %d ops applied, %d floor entries (synced: %b)"
        crash_at !applied (List.length !floor) !floor_synced);
  (* {3 Phase 2: recover on a fresh scheduler from the surviving bytes} *)
  let sched2 = Sched.create ~seed:cfg.Experiment.seed ~clock:`Virtual () in
  let farm2 = Experiment.build_farm ~restore:snapshots sched2 cfg in
  let out = ref None in
  ignore
    (Sched.spawn sched2 ~name:"crash.recover" (fun () ->
         let recoveries = ref [] and failed = ref [] in
         let record name = function
           | Ok rep -> recoveries := (name, rep) :: !recoveries
           | Error e -> failed := (name, e) :: !failed
         in
         let violations =
           match
             Stack.mount farm2.Experiment.f_stack (Stack.Recover record)
           with
           | client when !floor_synced -> check_floor client ~touched !floor
           | _ | (exception Errno.Error _) -> []
         in
         let recoveries = List.rev !recoveries in
         let failed = List.rev !failed in
         let checked = List.length !floor in
         let clean_fsck =
           List.for_all
             (fun (_, r) -> r.Lfs.r_fsck_errors = [])
             recoveries
         in
         out :=
           Some
             {
               crash_time = crash_at;
               applied_ops = !applied;
               floor_size = checked;
               floor_synced = !floor_synced;
               recoveries;
               failed_volumes = failed;
               violations;
               ok =
                 !floor_synced && failed = [] && violations = []
                 && clean_fsck;
             }));
  Sched.run sched2;
  match !out with
  | Some r -> r
  | None -> failwith "Crash.run: recovery produced no report"
