module Json = Capfs_stats.Json

let of_events evs = List.map (fun e -> (0, e)) evs

let pp_text ppf stream =
  List.iter
    (fun (sid, e) -> Format.fprintf ppf "%3d %a@." sid Event.pp e)
    stream

(* {2 Chrome trace_event JSON}

   Every record is a {!Capfs_stats.Json.t}, printed on its own line and
   written straight to the channel, so the trace is never held whole. *)

(* scheduler seconds in the format's microseconds, to the nanosecond *)
let usec s = Json.Num (Float.round (1e9 *. s) /. 1e3)

let int n = Json.Num (float_of_int n)

let args (kind : Event.kind) =
  let str v = Json.Str v in
  let request disk lba sectors write =
    [
      ("disk", str disk);
      ("lba", int lba);
      ("sectors", int sectors);
      ("op", str (if write then "write" else "read"));
    ]
  in
  match kind with
  | Event.Dispatch { thread; _ } | Event.Wake { thread; _ } ->
    [ ("thread", str thread) ]
  | Event.Block { thread; on; _ } -> [ ("thread", str thread); ("on", str on) ]
  | Event.Cache_hit { cache; ino; index }
  | Event.Cache_miss { cache; ino; index }
  | Event.Cache_evict { cache; ino; index } ->
    [ ("cache", str cache); ("ino", int ino); ("index", int index) ]
  | Event.Cache_flush { cache; blocks } ->
    [ ("cache", str cache); ("blocks", int blocks) ]
  | Event.Disk_enqueue { disk; lba; sectors; write }
  | Event.Disk_service { disk; lba; sectors; write; _ } ->
    request disk lba sectors write
  | Event.Disk_seek { disk; cylinder; _ } ->
    [ ("disk", str disk); ("cylinder", int cylinder) ]
  | Event.Seg_write { volume; seg; blocks } ->
    [ ("volume", str volume); ("segment", int seg); ("blocks", int blocks) ]
  | Event.Disk_fault { disk; lba; sectors; write; fault } ->
    request disk lba sectors write @ [ ("fault", str fault) ]
  | Event.Disk_retry { disk; attempt; _ } ->
    [ ("disk", str disk); ("attempt", int attempt) ]
  | Event.Disk_merge { disk; lba; sectors; write; count } ->
    request disk lba sectors write @ [ ("count", int count) ]
  | Event.Recovery { volume; segments; inodes } ->
    [
      ("volume", str volume);
      ("segments", int segments);
      ("inodes", int inodes);
    ]

(* Non-scheduler events render under a per-component synthetic thread
   id so each cache/disk/volume gets its own viewer track; scheduler
   events use the real fibre id. *)
let tid_of (kind : Event.kind) =
  match kind with
  | Event.Dispatch { tid; _ } | Event.Block { tid; _ } | Event.Wake { tid; _ }
    ->
    tid
  | _ ->
    (* stable small id from the component name, offset past fibre ids *)
    let h = Hashtbl.hash (Event.source kind) in
    100_000 + (h mod 10_000)

let record sid (e : Event.t) =
  let kind = e.Event.kind in
  let dur = Event.duration kind in
  let timing =
    if dur > 0. then
      [ ("ph", Json.Str "X"); ("ts", usec (e.Event.time -. dur));
        ("dur", usec dur) ]
    else
      [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("ts", usec e.Event.time) ]
  in
  Json.Obj
    ([
       ("name", Json.Str (Event.kind_name kind));
       ("cat", Json.Str (Event.layer_name (Event.layer_of kind)));
     ]
    @ timing
    @ [
        ("pid", int sid); ("tid", int (tid_of kind));
        ("args", Json.Obj (args kind));
      ])

(* Metadata records (ph "M") name each track: scheduler tids get their
   fibre's thread name, component tids the component name. *)
let thread_name sid tid (kind : Event.kind) =
  let label =
    match kind with
    | Event.Dispatch { thread; _ }
    | Event.Block { thread; _ }
    | Event.Wake { thread; _ } ->
      thread
    | kind -> Event.source kind
  in
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", int sid);
      ("tid", int tid);
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

let chrome_json oc stream =
  let first = ref true in
  let line v =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc (Json.compact v)
  in
  output_string oc "{\"traceEvents\": [\n";
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (sid, (e : Event.t)) ->
      let tid = tid_of e.Event.kind in
      if not (Hashtbl.mem seen (sid, tid)) then begin
        Hashtbl.replace seen (sid, tid) ();
        line (thread_name sid tid e.Event.kind)
      end)
    stream;
  List.iter (fun (sid, e) -> line (record sid e)) stream;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n"

let to_file path stream =
  Out_channel.with_open_text path (fun oc -> chrome_json oc stream)
