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

(* {2 Time synthesis}

   The one synthesizer: it pulls records from a cursor and hands them
   back in the same order, with the missing times filled in. An untimed
   read, write or truncate inside a (client, path) session is placed
   equidistantly between the session's open and close; every other
   untimed record inherits the time of the record handed out before it.
   A record is held back only while a later record can still time it —
   an untimed I/O record of an open session waits for its close — so
   memory is O(longest open-session span), not O(trace).

   Held records sit in a ring by sequence number, at slot
   [seq land (capacity - 1)], with their times in a float array and a
   pending flag per slot in [Bytes]. A popped slot is cleared, so a
   replayed record can be collected at once. *)

(* what a cleared slot holds *)
let vacant =
  { Record.time = Record.no_time; client = -1; op = Record.Stat { path = "" } }

(* A FIFO of records by sequence number: [first] is the oldest held,
   [stop] the one the next push gets. The capacity is a power of two. *)
type ring = {
  mutable buf : Record.t array;
  mutable first : int;
  mutable stop : int;
}

let ring () = { buf = Array.make 64 vacant; first = 0; stop = 0 }
let slot q seq = seq land (Array.length q.buf - 1)

(* doubles a full ring's capacity, each held record at its new slot *)
let grow q =
  let old = q.buf in
  q.buf <- Array.make (2 * Array.length old) vacant;
  for seq = q.first to q.stop - 1 do
    q.buf.(slot q seq) <- old.(seq land (Array.length old - 1))
  done

let push q r =
  if q.stop - q.first = Array.length q.buf then grow q;
  q.buf.(slot q q.stop) <- r;
  q.stop <- q.stop + 1

let pop q =
  let i = slot q q.first in
  let r = q.buf.(i) in
  q.buf.(i) <- vacant;
  q.first <- q.first + 1;
  r

(* an open session: its open's time and its held untimed I/O, by
   sequence number, newest first *)
type session = { t_open : float; mutable held : int list }

(* all-float, so stored unboxed: setting it allocates nothing *)
type clock = { mutable last : float }

type synth = {
  next : Source.cursor;
  q : ring;
  mutable times : float array;  (* per slot of [q] *)
  mutable pending : Bytes.t;  (* per slot: '\001' while a close may time it *)
  sessions : (int * string, session) Hashtbl.t;
  mutable eof : bool;
  prev : clock;  (* time of the record handed out last *)
}

let synthesizer next =
  let q = ring () in
  let cap = Array.length q.buf in
  {
    next;
    q;
    times = Array.make cap 0.;
    pending = Bytes.make cap '\000';
    sessions = Hashtbl.create 64;
    eof = false;
    prev = { last = 0. };
  }

let set_pending s seq flag = Bytes.unsafe_set s.pending (slot s.q seq) flag

(* puts [r] at the back of the ring, untimed I/O not yet pending, and
   returns its sequence number *)
let hold s r =
  let q = s.q in
  let cap = Array.length q.buf in
  if q.stop - q.first = cap then begin
    (* [push] below doubles the ring: double the per-slot arrays too *)
    let times = Array.make (2 * cap) 0. and pending = Bytes.make (2 * cap) '\000' in
    for seq = q.first to q.stop - 1 do
      let i = seq land (cap - 1) and j = seq land ((2 * cap) - 1) in
      times.(j) <- s.times.(i);
      Bytes.unsafe_set pending j (Bytes.unsafe_get s.pending i)
    done;
    s.times <- times;
    s.pending <- pending
  end;
  let seq = q.stop in
  push q r;
  let i = slot q seq in
  s.times.(i) <- r.Record.time;
  Bytes.unsafe_set s.pending i '\000';
  seq

(* Held records no close will time any more become leftovers. *)
let abandon s held = List.iter (fun seq -> set_pending s seq '\000') held

(* times a closed session's held records: [held] is newest first, so its
   [k]-th record is the [(n - k)]-th of [n] between open and close *)
let rec place s ~t_open ~span ~n k = function
  | [] -> ()
  | seq :: rest ->
    let i = slot s.q seq in
    s.times.(i) <-
      t_open +. (span *. float_of_int (n - k) /. float_of_int (n + 1));
    Bytes.unsafe_set s.pending i '\000';
    place s ~t_open ~span ~n (k + 1) rest

let pull s =
  match s.next () with
  | None ->
    s.eof <- true;
    (* nothing left can time a held record *)
    Hashtbl.iter (fun _ ss -> abandon s ss.held) s.sessions;
    Hashtbl.reset s.sessions
  | Some r -> (
    let seq = hold s r in
    match r.Record.op with
    | Record.Open _ when Record.has_time r ->
      let key = (r.Record.client, Record.path r) in
      (* a re-open leaves the previous session's held records untimed *)
      (match Hashtbl.find s.sessions key with
      | ss -> abandon s ss.held
      | exception Not_found -> ());
      Hashtbl.replace s.sessions key { t_open = r.Record.time; held = [] }
    | (Record.Read _ | Record.Write _ | Record.Truncate _)
      when not (Record.has_time r) -> (
      match Hashtbl.find s.sessions (r.Record.client, Record.path r) with
      | ss ->
        set_pending s seq '\001';
        ss.held <- seq :: ss.held
      | exception Not_found -> ())
    | Record.Close _ when Record.has_time r -> (
      let key = (r.Record.client, Record.path r) in
      match Hashtbl.find s.sessions key with
      | ss ->
        Hashtbl.remove s.sessions key;
        place s ~t_open:ss.t_open ~span:(r.Record.time -. ss.t_open)
          ~n:(List.length ss.held) 0 ss.held
      | exception Not_found -> ())
    | _ -> ())

(* [ready s] pulls until the oldest held record's time is known: true
   when there is one to [take], false at the end of the trace (which
   leaves nothing pending, so nothing held). *)
let rec ready s =
  let q = s.q in
  if q.stop > q.first && Bytes.unsafe_get s.pending (slot q q.first) = '\000'
  then true
  else if s.eof then false
  else begin
    pull s;
    ready s
  end

(* the oldest held record, with its synthesized time; call after [ready] *)
let take s =
  let q = s.q in
  let t = s.times.(slot q q.first) in
  let r = pop q in
  let t = if t < 0. then s.prev.last else (s.prev.last <- t; t) in
  if t <> r.Record.time then { r with Record.time = t } else r

let synthesize_times records =
  let s = synthesizer (Source.cursor (Source.of_array records)) in
  let out = ref [] in
  while ready s do
    out := take s :: !out
  done;
  Array.of_list (List.rev !out)

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

(* Results are reported in 15-minute windows of simulated time. *)
let window = 900.

(* The first pass: each trace client with its record count, in the
   order the client fibres are spawned. That order fixes the
   deterministic interleaving every recorded figure depends on, so it
   is the fold order of a table built exactly this way. *)
let clients_of source =
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let next = Source.cursor source in
  let rec count_pass () =
    match next () with
    | None -> ()
    | Some r ->
      (match Hashtbl.find counts r.Record.client with
      | n -> incr n
      | exception Not_found -> Hashtbl.replace counts r.Record.client (ref 1));
      count_pass ()
  in
  count_pass ();
  let slots : (int, int) Hashtbl.t = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter (fun c n -> Hashtbl.replace slots c !n) counts;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) slots []

let run ?(speedup = 1.0) ?(real_data = false) ?(serial = false) ?observe
    client source =
  if speedup <= 0. then invalid_arg "Replay.run: speedup <= 0";
  let payload = if real_data then Data.real else Data.sim in
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
  let pace (r : Record.t) =
    let target = base +. (r.Record.time /. speedup) in
    let now = Sched.now sched in
    if target > now then Sched.sleep sched (target -. now)
  in
  let replay_one (r : Record.t) =
    pace r;
    let t0 = Sched.now sched in
    (match dispatch_synthesizing client ~payload r with
    | Ok () -> ( match observe with Some f -> f r | None -> ())
    | Error e when is_trace_artifact r e -> incr skipped
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
  let clients = clients_of source in
  let s = synthesizer (Source.cursor source) in
  let remaining = ref (List.length clients) in
  let all_done = Sched.new_event ~name:"replay.done" sched in
  let close_all cid =
    match Client.close_all client ~client:cid with Ok () | Error _ -> ()
  in
  let fibre_done () =
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
           while ready s do
             replay_one (take s)
           done;
           List.iter (fun (cid, _) -> close_all cid) clients;
           fibre_done ()))
  end
  else begin
    (* One fibre per client. A fibre needing its next record takes
       records from the synthesizer until one of its own appears,
       parking the other clients' records on their rings. Nothing here
       yields, so the shared synthesizer needs no lock, and memory is
       bounded by the inter-client skew of the active window. *)
    let rings : (int, ring) Hashtbl.t = Hashtbl.create (List.length clients) in
    List.iter (fun (c, _) -> Hashtbl.replace rings c (ring ())) clients;
    let rec next_for cid own =
      if own.stop > own.first then pop own
      else if not (ready s) then
        (* [clients_of] counted exactly this many records for [cid] *)
        assert false
      else
        let r = take s in
        if r.Record.client = cid then r
        else begin
          push (Hashtbl.find rings r.Record.client) r;
          next_for cid own
        end
    in
    List.iter
      (fun (cid, n) ->
        let own = Hashtbl.find rings cid in
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "replay.c%d" cid)
             (fun () ->
               for _ = 1 to n do
                 replay_one (next_for cid own)
               done;
               close_all cid;
               fibre_done ())))
      clients
  end;
  if !remaining > 0 then Sched.await sched all_done;
  (* The client fibres stop after their counted records, short of the
     cursor's end: pull it there, which closes a file cursor. *)
  let more = ready s in
  assert (not more);
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
