let of_events evs = List.map (fun e -> (0, e)) evs

let pp_text ppf stream =
  List.iter
    (fun (sid, e) -> Format.fprintf ppf "%3d %a@." sid Event.pp e)
    stream

(* {2 Chrome trace_event JSON}

   Hand-rolled: the toolchain has no JSON library, and the format is a
   flat array of small objects. Everything numeric is finite by
   construction (scheduler times and durations). *)

let add_str buf s =
  Buffer.add_char buf '"';
  Capfs_stats.Json.add_escaped buf s;
  Buffer.add_char buf '"'

let add_field buf ~first name value =
  if not first then Buffer.add_char buf ',';
  add_str buf name;
  Buffer.add_char buf ':';
  value ()

let usec s = Printf.sprintf "%.3f" (1e6 *. s)

let add_args buf (kind : Event.kind) =
  let str name v =
    add_str buf name;
    Buffer.add_char buf ':';
    add_str buf v
  in
  let int name v =
    add_str buf name;
    Buffer.add_string buf (Printf.sprintf ":%d" v)
  in
  let sep () = Buffer.add_char buf ',' in
  Buffer.add_char buf '{';
  (match kind with
  | Event.Dispatch { thread; _ } | Event.Wake { thread; _ } ->
    str "thread" thread
  | Event.Block { thread; on; _ } ->
    str "thread" thread;
    sep ();
    str "on" on
  | Event.Cache_hit { cache; ino; index }
  | Event.Cache_miss { cache; ino; index }
  | Event.Cache_evict { cache; ino; index } ->
    str "cache" cache;
    sep ();
    int "ino" ino;
    sep ();
    int "index" index
  | Event.Cache_flush { cache; blocks } ->
    str "cache" cache;
    sep ();
    int "blocks" blocks
  | Event.Disk_enqueue { disk; lba; sectors; write } ->
    str "disk" disk;
    sep ();
    int "lba" lba;
    sep ();
    int "sectors" sectors;
    sep ();
    str "op" (if write then "write" else "read")
  | Event.Disk_seek { disk; cylinder; _ } ->
    str "disk" disk;
    sep ();
    int "cylinder" cylinder
  | Event.Disk_service { disk; lba; sectors; write; _ } ->
    str "disk" disk;
    sep ();
    int "lba" lba;
    sep ();
    int "sectors" sectors;
    sep ();
    str "op" (if write then "write" else "read")
  | Event.Seg_write { volume; seg; blocks } ->
    str "volume" volume;
    sep ();
    int "segment" seg;
    sep ();
    int "blocks" blocks
  | Event.Disk_fault { disk; lba; sectors; write; fault } ->
    str "disk" disk;
    sep ();
    int "lba" lba;
    sep ();
    int "sectors" sectors;
    sep ();
    str "op" (if write then "write" else "read");
    sep ();
    str "fault" fault
  | Event.Disk_retry { disk; attempt; _ } ->
    str "disk" disk;
    sep ();
    int "attempt" attempt
  | Event.Disk_merge { disk; lba; sectors; write; count } ->
    str "disk" disk;
    sep ();
    int "lba" lba;
    sep ();
    int "sectors" sectors;
    sep ();
    str "op" (if write then "write" else "read");
    sep ();
    int "count" count
  | Event.Recovery { volume; segments; inodes } ->
    str "volume" volume;
    sep ();
    int "segments" segments;
    sep ();
    int "inodes" inodes);
  Buffer.add_char buf '}'

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

let add_event buf sid (e : Event.t) =
  let dur = Event.duration e.Event.kind in
  Buffer.add_char buf '{';
  add_field buf ~first:true "name" (fun () ->
      add_str buf (Event.kind_name e.Event.kind));
  add_field buf ~first:false "cat" (fun () ->
      add_str buf (Event.layer_name (Event.layer_of e.Event.kind)));
  if dur > 0. then begin
    add_field buf ~first:false "ph" (fun () -> add_str buf "X");
    add_field buf ~first:false "ts" (fun () ->
        Buffer.add_string buf (usec (e.Event.time -. dur)));
    add_field buf ~first:false "dur" (fun () ->
        Buffer.add_string buf (usec dur))
  end
  else begin
    add_field buf ~first:false "ph" (fun () -> add_str buf "i");
    add_field buf ~first:false "s" (fun () -> add_str buf "t");
    add_field buf ~first:false "ts" (fun () ->
        Buffer.add_string buf (usec e.Event.time))
  end;
  add_field buf ~first:false "pid" (fun () ->
      Buffer.add_string buf (string_of_int sid));
  add_field buf ~first:false "tid" (fun () ->
      Buffer.add_string buf (string_of_int (tid_of e.Event.kind)));
  add_field buf ~first:false "args" (fun () -> add_args buf e.Event.kind);
  Buffer.add_char buf '}'

(* Metadata records (ph "M") name each track: scheduler tids get their
   fibre's thread name, component tids the component name. *)
let add_thread_names buf stream =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (sid, (e : Event.t)) ->
      let tid = tid_of e.Event.kind in
      if not (Hashtbl.mem seen (sid, tid)) then begin
        let label =
          match e.Event.kind with
          | Event.Dispatch { thread; _ }
          | Event.Block { thread; _ }
          | Event.Wake { thread; _ } ->
            thread
          | kind -> Event.source kind
        in
        Hashtbl.replace seen (sid, tid) ();
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":"
             sid tid);
        add_str buf label;
        Buffer.add_string buf "}},\n"
      end)
    stream

let chrome_json buf stream =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  add_thread_names buf stream;
  List.iteri
    (fun i (sid, e) ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf sid e)
    stream;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_file path stream =
  let buf = Buffer.create 65536 in
  chrome_json buf stream;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc
