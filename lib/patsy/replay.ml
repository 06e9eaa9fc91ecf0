module Sched = Capfs_sched.Sched
module Record = Capfs_trace.Record
module Source = Capfs_trace.Source
module Client = Capfs.Client
module Data = Capfs_disk.Data
module Stats = Capfs_stats
module Errno = Capfs_core.Errno

let src = Logs.Src.create "capfs.replay" ~doc:"trace replay engine"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  operations : int;
  errors : int;
  skipped_ops : int;
  errors_by_kind : (string * int) list;
  elapsed : float;
  latency : Stats.Sample_set.t;
  latency_by_op : (string * Stats.Welford.t) list;
  windows : Stats.Interval.t;
}

(* {2 Missing-parameter synthesis} *)

let synthesize_times records =
  (* Work on a copy: the input array may be shared across concurrently
     running experiment domains, so it is never mutated. Synthesized
     times are patched straight into the copy — no list round-trips. *)
  let arr = Array.copy records in
  let times = Array.map (fun r -> r.Record.time) arr in
  (* per (client, path): open time and pending untimed I/O indices *)
  let sessions : (int * string, float * int list) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun i r ->
      let key = (r.Record.client, Record.path r) in
      match r.Record.op with
      | Record.Open _ when Record.has_time r ->
        Hashtbl.replace sessions key (r.Record.time, [])
      | (Record.Read _ | Record.Write _ | Record.Truncate _)
        when not (Record.has_time r) -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, pending) ->
          Hashtbl.replace sessions key (t_open, i :: pending)
        | None -> ())
      | Record.Close _ when Record.has_time r -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, pending) ->
          let pending = List.rev pending in
          let n = List.length pending in
          List.iteri
            (fun j idx ->
              times.(idx) <-
                t_open
                +. ((r.Record.time -. t_open) *. float_of_int (j + 1)
                    /. float_of_int (n + 1)))
            pending;
          Hashtbl.remove sessions key
        | None -> ())
      | _ -> ())
    arr;
  (* leftovers inherit the previous record's (possibly synthesized) time *)
  let last = ref 0. in
  Array.iteri
    (fun i _ ->
      if times.(i) < 0. then times.(i) <- !last else last := times.(i))
    arr;
  Array.iteri
    (fun i r ->
      if times.(i) <> r.Record.time then arr.(i) <- { r with Record.time = times.(i) })
    arr;
  arr

(* The streaming equivalent: a cursor over the input records that emits
   them in the same order with the same synthesized times as
   [synthesize_times], holding back only as many records as the time
   synthesis needs (an open session's untimed I/O cannot be timed until
   its close arrives). Memory is O(longest open-session span), not
   O(trace).

   A pulled record parks in [q] until its time is known. [h_pending]
   marks an untimed I/O record attached to an open session — the only
   state that may still be patched by a later Close. Everything else is
   emittable as soon as it reaches the queue front: timed records
   as-is, the rest by the leftover rule (inherit the previous emitted
   record's time), which is exactly what the array algorithm's final
   pass computes for records no Close ever patches. *)
type held = {
  h_rec : Record.t;
  mutable h_time : float;
  mutable h_pending : bool;
}

let synthesizing_cursor (next : Source.cursor) : Source.cursor =
  let q : held Queue.t = Queue.create () in
  let sessions : (int * string, float * held list) Hashtbl.t =
    Hashtbl.create 64
  in
  let eof = ref false in
  let last = ref 0. in
  let abandon cells = List.iter (fun h -> h.h_pending <- false) cells in
  let pull () =
    match next () with
    | None ->
      eof := true;
      (* nothing left can patch a parked record: all become leftovers *)
      Hashtbl.iter (fun _ (_, cells) -> abandon cells) sessions;
      Hashtbl.reset sessions
    | Some r ->
      let h = { h_rec = r; h_time = r.Record.time; h_pending = false } in
      let key = (r.Record.client, Record.path r) in
      (match r.Record.op with
      | Record.Open _ when Record.has_time r ->
        (* a re-open drops the previous session's pending records —
           they are leftovers now, same as the array algorithm *)
        (match Hashtbl.find_opt sessions key with
        | Some (_, cells) -> abandon cells
        | None -> ());
        Hashtbl.replace sessions key (r.Record.time, [])
      | (Record.Read _ | Record.Write _ | Record.Truncate _)
        when not (Record.has_time r) -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, cells) ->
          h.h_pending <- true;
          Hashtbl.replace sessions key (t_open, h :: cells)
        | None -> ())
      | Record.Close _ when Record.has_time r -> (
        match Hashtbl.find_opt sessions key with
        | Some (t_open, cells) ->
          let cells = List.rev cells in
          let n = List.length cells in
          List.iteri
            (fun j c ->
              c.h_time <-
                t_open
                +. ((r.Record.time -. t_open) *. float_of_int (j + 1)
                    /. float_of_int (n + 1));
              c.h_pending <- false)
            cells;
          Hashtbl.remove sessions key
        | None -> ())
      | _ -> ());
      Queue.push h q
  in
  let rec emit () =
    match Queue.peek_opt q with
    | Some h when not h.h_pending ->
      ignore (Queue.pop q);
      if h.h_time < 0. then h.h_time <- !last else last := h.h_time;
      let r = h.h_rec in
      Some
        (if h.h_time <> r.Record.time then { r with Record.time = h.h_time }
         else r)
    | Some _ when !eof ->
      (* EOF abandons every pending record *)
      assert false
    | Some _ ->
      pull ();
      emit ()
    | None ->
      if !eof then None
      else begin
        pull ();
        emit ()
      end
  in
  emit

(* {2 Dispatch} *)

let mode_of = function
  | Record.Read_only -> Client.RO
  | Record.Write_only -> Client.WO
  | Record.Read_write -> Client.RW

(* fixed tags for the per-op latency Welfords, so the replay loop
   indexes an array instead of hashing the op name every operation *)
let op_count = 9

let op_index (r : Record.t) =
  match r.Record.op with
  | Record.Open _ -> 0
  | Record.Close _ -> 1
  | Record.Read _ -> 2
  | Record.Write _ -> 3
  | Record.Stat _ -> 4
  | Record.Delete _ -> 5
  | Record.Truncate _ -> 6
  | Record.Mkdir _ -> 7
  | Record.Rmdir _ -> 8

let op_index_names =
  [|
    "open"; "close"; "read"; "write"; "stat"; "delete"; "truncate"; "mkdir";
    "rmdir";
  |]

(* [payload] is [Data.sim] for pure performance simulation and
   [Data.real] for crash experiments, where segment summaries and data
   must actually survive on the backing store. *)
let dispatch client ~payload (r : Record.t) : (unit, Errno.t) Stdlib.result =
  let c = r.Record.client in
  match r.Record.op with
  | Record.Open { path; mode } -> Client.open_ client ~client:c path (mode_of mode)
  | Record.Close { path } -> Client.close_ client ~client:c path
  | Record.Read { path; offset; bytes } -> (
    match Client.read client ~client:c path ~offset ~bytes with
    | Ok _ -> Ok ()
    | Error _ as e -> e)
  | Record.Write { path; offset; bytes } ->
    Client.write client ~client:c path ~offset (payload bytes)
  | Record.Stat { path } -> (
    match Client.stat client path with Ok _ -> Ok () | Error _ as e -> e)
  | Record.Delete { path } -> Client.delete client path
  | Record.Truncate { path; size } -> Client.truncate client path ~size
  | Record.Mkdir { path } -> Client.mkdir client path
  | Record.Rmdir { path } -> Client.rmdir client path

(* {2 The replay proper} *)

(* A reference to a file the trace assumes pre-exists: synthesize it
   (with adopted, "already on disk" blocks) and retry the operation. *)
let synthesized_size (r : Record.t) =
  match r.Record.op with
  | Record.Read { offset; bytes; _ } -> Stdlib.max 8192 (offset + bytes)
  | Record.Truncate { size; _ } -> size
  | _ -> 8192

let dispatch_synthesizing client ~payload (r : Record.t) =
  match dispatch client ~payload r with
  | Error Errno.ENOENT -> (
    match r.Record.op with
    | Record.Open { path; _ }
    | Record.Read { path; _ }
    | Record.Stat { path }
    | Record.Truncate { path; _ } -> (
      match Client.synthesize_file client path ~size:(synthesized_size r) with
      | Ok () -> dispatch client ~payload r
      | Error _ as e -> e)
    | Record.Write { path; _ } | Record.Mkdir { path } -> (
      (* missing parents *)
      match Client.ensure_dirs client path with
      | Ok () -> dispatch client ~payload r
      | Error _ as e -> e)
    | Record.Close _ | Record.Delete _ | Record.Rmdir _ ->
      (* nothing sensible to synthesize *)
      Error Errno.ENOENT)
  | r -> r

(* Everything the replay measures, shared by the array and the
   streaming drivers: per-op latency bookkeeping, the pacing clock, and
   final result assembly. *)
type engine = {
  e_sched : Sched.t;
  e_base : float;
  e_speedup : float;
  e_measure : Record.t -> unit;
  e_finish : unit -> result;
}

let make_engine ?observe ~speedup ~window ~synthesize_missing ~real_data
    client =
  if speedup <= 0. then invalid_arg "Replay.run: speedup <= 0";
  let payload = if real_data then Data.real else Data.sim in
  let dispatch = if synthesize_missing then dispatch_synthesizing else dispatch in
  let sched = (Client.fsys client).Capfs.Fsys.sched in
  let latency = Stats.Sample_set.create ~cap:200_000 () in
  let by_op = Array.init op_count (fun _ -> Stats.Welford.create ()) in
  let windows = Stats.Interval.create ~width:window () in
  let operations = ref 0 and errors = ref 0 and skipped = ref 0 in
  let error_kinds = Array.make (Array.length Errno.all) 0 in
  let t_first = ref infinity and t_last = ref 0. in
  let base = Sched.now sched in
  let fail e =
    incr errors;
    let i = Errno.to_index e in
    error_kinds.(i) <- error_kinds.(i) + 1
  in
  (* Trace artifacts, counted apart from real errors:
     - a close/delete/rmdir of a path the trace never created — the
       target predates the trace window, and an op that only destroys
       state has nothing sensible to synthesize;
     - a mkdir of a directory that is already there — another client's
       record under it ran first, and synthesis made it. *)
  let is_trace_artifact (r : Record.t) (e : Errno.t) =
    match (r.Record.op, e) with
    | (Record.Close _ | Record.Delete _ | Record.Rmdir _), Errno.ENOENT -> true
    | Record.Mkdir { path }, Errno.EEXIST -> (
      match Client.stat client path with
      | Ok st -> st.Client.st_kind = Capfs_layout.Inode.Directory
      | Error _ -> false)
    | _ -> false
  in
  (* [dispatch client r] is called directly rather than through a
     per-op closure: this runs once per trace record. *)
  let measure (r : Record.t) =
    let t0 = Sched.now sched in
    (match dispatch client ~payload r with
    | Ok () -> ( match observe with Some f -> f r | None -> ())
    | Error e when synthesize_missing && is_trace_artifact r e -> incr skipped
    | Error e -> fail e);
    let t1 = Sched.now sched in
    incr operations;
    let dt = t1 -. t0 in
    Stats.Sample_set.add latency dt;
    Stats.Interval.add windows ~time:(t1 -. base) dt;
    t_first := Stdlib.min !t_first t0;
    t_last := Stdlib.max !t_last t1;
    Stats.Welford.add by_op.(op_index r) dt
  in
  let finish () =
    Stats.Interval.flush windows;
    Log.info (fun m ->
        m "replay: %d ops, %d errors, %d skipped, %.1f simulated seconds"
          !operations !errors !skipped (!t_last -. !t_first));
    let errors_by_kind =
      List.filteri (fun _ (_, n) -> n > 0)
        (Array.to_list
           (Array.mapi
              (fun i n -> (Errno.to_string Errno.all.(i), n))
              error_kinds))
    in
    {
      operations = !operations;
      errors = !errors;
      skipped_ops = !skipped;
      errors_by_kind;
      elapsed = (if !operations = 0 then 0. else !t_last -. !t_first);
      latency;
      latency_by_op =
        Array.to_list (Array.mapi (fun i w -> (op_index_names.(i), w)) by_op)
        |> List.filter (fun (_, w) -> Stats.Welford.count w > 0)
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      windows;
    }
  in
  {
    e_sched = sched;
    e_base = base;
    e_speedup = speedup;
    e_measure = measure;
    e_finish = finish;
  }

let pace e (r : Record.t) =
  let target = e.e_base +. (r.Record.time /. e.e_speedup) in
  let now = Sched.now e.e_sched in
  if target > now then Sched.sleep e.e_sched (target -. now)

let run_array ?observe ~speedup ~window ~synthesize_missing ~real_data
    ~serial client records =
  let e =
    make_engine ?observe ~speedup ~window ~synthesize_missing ~real_data client
  in
  let records = synthesize_times records in
  let sched = e.e_sched in
  (* group records per client, preserving order: one index array per
     client, so the fibres walk the shared record array directly *)
  let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      let c = r.Record.client in
      Hashtbl.replace counts c
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    records;
  let slots : (int, int array * int ref) Hashtbl.t =
    Hashtbl.create (Hashtbl.length counts)
  in
  Hashtbl.iter
    (fun c n -> Hashtbl.replace slots c (Array.make n 0, ref 0))
    counts;
  Array.iteri
    (fun i r ->
      let a, fill = Hashtbl.find slots r.Record.client in
      a.(!fill) <- i;
      incr fill)
    records;
  let clients = Hashtbl.fold (fun c (a, _) acc -> (c, a) :: acc) slots [] in
  let remaining = ref (List.length clients) in
  let all_done = Sched.new_event ~name:"replay.done" sched in
  let client_fibre (cid, indices) () =
    Array.iter
      (fun i ->
        let r = records.(i) in
        pace e r;
        e.e_measure r)
      indices;
    (match Client.close_all client ~client:cid with Ok () | Error _ -> ());
    decr remaining;
    if !remaining = 0 then Sched.broadcast sched all_done
  in
  (* Serial mode dispatches every record from one fibre in strict trace
     order: no cross-client interleaving, so two engines replaying the
     same trace make identical logical state transitions. Differential
     validation (lib/diffval) depends on this determinism; concurrent
     mode is the realistic default for performance experiments. *)
  if serial then begin
    remaining := 1;
    ignore
      (Sched.spawn sched ~name:"replay.serial" (fun () ->
           Array.iter
             (fun r ->
               pace e r;
               e.e_measure r)
             records;
           List.iter
             (fun (cid, _) ->
               match Client.close_all client ~client:cid with
               | Ok () | Error _ -> ())
             clients;
           decr remaining;
           Sched.broadcast sched all_done))
  end
  else
    List.iter
      (fun ((cid, _) as work) ->
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "replay.c%d" cid)
             (client_fibre work)))
      clients;
  if !remaining > 0 then Sched.await sched all_done;
  e.e_finish ()

(* {2 Streaming replay} *)

let run_streamed ?observe ~speedup ~window ~synthesize_missing ~real_data
    ~serial client source =
  let e =
    make_engine ?observe ~speedup ~window ~synthesize_missing ~real_data client
  in
  let sched = e.e_sched in
  (* Pass 1: count records per client. The hashtable is built by the
     same [replace] sequence as the array path's, so its fold order —
     and with it the fibre spawn order the deterministic interleaving
     hangs off — is identical. *)
  let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next = Source.cursor source in
  let rec count_pass () =
    match next () with
    | None -> ()
    | Some r ->
      let c = r.Record.client in
      Hashtbl.replace counts c
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts c));
      count_pass ()
  in
  count_pass ();
  let slots : (int, int) Hashtbl.t = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter (fun c n -> Hashtbl.replace slots c n) counts;
  let clients = Hashtbl.fold (fun c n acc -> (c, n) :: acc) slots [] in
  let remaining = ref (List.length clients) in
  let all_done = Sched.new_event ~name:"replay.done" sched in
  (* Pass 2: one shared synthesizing cursor feeds per-client queues. A
     fibre needing its next record drains the cursor until one of its
     own appears, parking records for the other clients on their
     queues. Fibre steps are cooperative (no yield inside [next_for]),
     so the shared cursor needs no locking. Memory is bounded by the
     inter-client skew of the active window, not the trace length. *)
  let synth = synthesizing_cursor (Source.cursor source) in
  let queues : (int, Record.t Queue.t) Hashtbl.t =
    Hashtbl.create (List.length clients)
  in
  List.iter (fun (c, _) -> Hashtbl.replace queues c (Queue.create ())) clients;
  let next_for cid =
    let q = Hashtbl.find queues cid in
    let rec go () =
      match Queue.take_opt q with
      | Some r -> r
      | None -> (
        match synth () with
        | None ->
          (* pass 1 counted exactly this many records for [cid] *)
          assert false
        | Some r ->
          if r.Record.client = cid then r
          else begin
            Queue.push r (Hashtbl.find queues r.Record.client);
            go ()
          end)
    in
    go ()
  in
  let client_fibre (cid, n) () =
    for _ = 1 to n do
      let r = next_for cid in
      pace e r;
      e.e_measure r
    done;
    (match Client.close_all client ~client:cid with Ok () | Error _ -> ());
    decr remaining;
    if !remaining = 0 then Sched.broadcast sched all_done
  in
  if serial then begin
    remaining := 1;
    ignore
      (Sched.spawn sched ~name:"replay.serial" (fun () ->
           let rec go () =
             match synth () with
             | None -> ()
             | Some r ->
               pace e r;
               e.e_measure r;
               go ()
           in
           go ();
           List.iter
             (fun (cid, _) ->
               match Client.close_all client ~client:cid with
               | Ok () | Error _ -> ())
             clients;
           decr remaining;
           Sched.broadcast sched all_done))
  end
  else
    List.iter
      (fun ((cid, _) as work) ->
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "replay.c%d" cid)
             (client_fibre work)))
      clients;
  if !remaining > 0 then Sched.await sched all_done;
  e.e_finish ()

let run ?(speedup = 1.0) ?(window = 900.) ?(synthesize_missing = true)
    ?(real_data = false) ?(serial = false) ?observe client source =
  match Source.as_array source with
  | Some records ->
    (* array-backed: the exact historical replay path, bit for bit (and
       the lean one — no per-client queues, no synthesizing cursor) *)
    run_array ?observe ~speedup ~window ~synthesize_missing ~real_data
      ~serial client records
  | None ->
    run_streamed ?observe ~speedup ~window ~synthesize_missing ~real_data
      ~serial client source
