(* The load generator's workloads, each a function of one transport.
   See loadgen.mli. *)

module CC = Cached_client
module Frame = Capfs_ccache.Netlink.Frame
module Errno = Capfs_core.Errno
module Client = Capfs.Client
module Histogram = Capfs_stats.Histogram
module Prng = Capfs_stats.Prng
module Json = Capfs_stats.Json

let src = Logs.Src.create "capfs.loadgen" ~doc:"PFS load generator"

module Log = (val Logs.src_log src : Logs.LOG)

let fail fmt = Printf.ksprintf failwith fmt
let pp_reply r = Format.asprintf "%a" Wire.pp_reply r

type workload = Seq | Zipf of float | Readmostly of float

let parse_workload s =
  let number kind v ok k =
    match float_of_string_opt v with
    | Some x when ok x -> Ok (k x)
    | _ -> Error (Printf.sprintf "bad %s %S" kind v)
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "seq" ] -> Ok Seq
  | [ "zipf"; t ] -> number "zipf theta" t (fun t -> t >= 0.) (fun t -> Zipf t)
  | [ "readmostly"; r ] ->
    number "readmostly ratio" r
      (fun r -> r >= 0. && r <= 1.)
      (fun r -> Readmostly r)
  | _ ->
    Error
      (Printf.sprintf
         "unknown workload %S (seq | zipf:<theta> | readmostly:<ratio>)" s)

let workload_name = function
  | Seq -> "seq"
  | Zipf t -> Printf.sprintf "zipf:%g" t
  | Readmostly r -> Printf.sprintf "readmostly:%g" r

type result = {
  ops : int;
  eagain : int;
  errors : int;
  secs : float;
  hits : int;
  misses : int;
  msgs : int;
  latency : Histogram.t;
}

(* 1 µs to 1,000 s at 20 buckets a decade: each bucket 12% wide *)
let latency_histogram () = Histogram.log ~lo:1e-6 ~hi:1e3 ~per_decade:20

(* {1 Plain requests}

   One frame per request, replies matched by id. A plain client holds
   no grant, so no push is owed it; one that arrives is skipped. *)

type plain = { tr : CC.transport; mutable last_id : int; mutable sent : int }

let plain tr = { tr; last_id = 0; sent = 0 }

let send p req =
  let opcode, payload = Wire.encode_request req in
  p.last_id <- p.last_id + 1;
  p.sent <- p.sent + 1;
  match p.tr.CC.t_send [ { Frame.req_id = p.last_id; opcode; payload } ] with
  | Ok () -> p.last_id
  | Error e -> fail "send failed (%s)" (Errno.to_string e)

let rec recv p =
  match p.tr.CC.t_recv ~block:true with
  | Error e -> fail "receive failed (%s)" (Errno.to_string e)
  | Ok None -> fail "server closed the connection"
  | Ok (Some f) when f.Frame.req_id = Wire.push_req_id -> recv p
  | Ok (Some f) -> (
    match Wire.decode_reply ~opcode:f.Frame.opcode f.Frame.payload with
    | Ok r -> (f.Frame.req_id, r)
    | Error e -> fail "bad reply (%s)" (Errno.to_string e))

let call p req =
  let id = send p req in
  let rec wait () =
    let id', r = recv p in
    if id' = id then r else wait ()
  in
  wait ()

(* {1 seq}

   [depth] requests in flight, replies correlated by id (they return
   out of order). Each slot cycles open→write→close→open→read→close
   over the client's private files — a private directory, so the first
   path component routes all of one client's traffic to one shard. *)

let seq tr ~id ~depth ~files ~bytes ~seconds =
  let p = plain tr and now = tr.CC.t_now in
  let dir = Printf.sprintf "/c%d" id in
  let payload = String.make bytes 'x' in
  (* setup, neither timed nor counted: the private directory *)
  let rec mkdir tries =
    match call p (Wire.Mkdir dir) with
    | Wire.Ok_unit | Wire.Err Errno.EEXIST -> ()
    | Wire.Err Errno.EAGAIN when tries > 0 ->
      Unix.sleepf 0.01;
      mkdir (tries - 1)
    | r -> fail "mkdir %s: %s" dir (pp_reply r)
  in
  mkdir 200;
  p.sent <- 0;
  let request file phase =
    let path = Printf.sprintf "%s/f%d" dir file in
    match phase with
    | 0 -> Wire.Open { client = id; path; mode = Client.WO }
    | 1 -> Wire.Write { client = id; path; offset = 0; data = payload }
    | 2 | 5 -> Wire.Close { client = id; path }
    | 3 -> Wire.Open { client = id; path; mode = Client.RO }
    | _ -> Wire.Read { client = id; path; offset = 0; count = bytes }
  in
  let latency = latency_histogram () in
  let ops = ref 0 and eagain = ref 0 and errors = ref 0 in
  let in_flight = Hashtbl.create 16 in (* req_id -> (slot, phase, sent at) *)
  let issue slot phase =
    let rid = send p (request slot.(0) phase) in
    Hashtbl.replace in_flight rid (slot, phase, now ())
  in
  let slots = Array.init depth (fun i -> [| i mod files |]) in
  let t0 = now () in
  let deadline = t0 +. seconds in
  Array.iter (fun slot -> issue slot 0) slots;
  (* each slot has one request in flight; a slot whose reply lands
     after the deadline retires, so the loop ends drained *)
  let live = ref depth in
  while !live > 0 do
    let rid, reply = recv p in
    match Hashtbl.find_opt in_flight rid with
    | None -> fail "reply to unknown request %d" rid
    | Some (slot, phase, sent_at) ->
      Hashtbl.remove in_flight rid;
      let t = now () in
      let next =
        match reply with
        | Wire.Err Errno.EAGAIN ->
          incr eagain;
          phase
        | Wire.Err _ ->
          incr errors;
          phase + 1
        | _ ->
          Histogram.add latency (t -. sent_at);
          incr ops;
          phase + 1
      in
      if t >= deadline then decr live
      else begin
        if next = 6 then slot.(0) <- (slot.(0) + depth) mod files;
        issue slot (next mod 6)
      end
  done;
  let secs = now () -. t0 in
  tr.CC.t_close ();
  { ops = !ops; eagain = !eagain; errors = !errors; secs; hits = 0;
    misses = 0; msgs = p.sent; latency }

(* {1 The shared families}

   Every client holds the same [files] files under /shared open and
   reads them: Zipf-skewed ([zipf:<theta>], pure reads) or uniform
   with a write mix ([readmostly:<ratio>]: [1-ratio] of the ops cycle
   a handle RO→WO→write→RO, so the grant machinery sees real sharing).
   One loop runs over a four-call session, built from {!Cached_client}
   or from plain requests; [finish] ends it and counts
   (hits, misses, messages). *)

let shared_dir = "/shared"
let shared_file k = Printf.sprintf "%s/f%d" shared_dir k

type session = {
  open_ : string -> Client.open_mode -> (unit, Errno.t) Stdlib.result;
  close : string -> (unit, Errno.t) Stdlib.result;
  read : string -> (unit, Errno.t) Stdlib.result;
  write : string -> (unit, Errno.t) Stdlib.result;
  finish : unit -> int * int * int;
}

(* Counted before [disconnect], whose closes are teardown: the
   messages are the grants and fetches the reads cost. *)
let cached_session tr ~id ~files:_ ~bytes ~payload =
  let cc = CC.create ~client:(id + 1) tr in
  {
    open_ = CC.open_ cc;
    close = CC.close_ cc;
    read =
      (fun path -> Result.map ignore (CC.read cc path ~offset:0 ~count:bytes));
    write = (fun path -> CC.write cc path ~offset:0 ~data:payload);
    finish =
      (fun () ->
        let counts = (CC.local_hits cc, CC.remote_misses cc, CC.msgs_sent cc) in
        CC.disconnect cc;
        counts);
  }

(* One request per call; every file is closed before the count. *)
let plain_session tr ~id ~files ~bytes ~payload =
  let p = plain tr in
  let rpc req = match call p req with Wire.Err e -> Error e | _ -> Ok () in
  let close path = rpc (Wire.Close { client = id; path }) in
  {
    open_ = (fun path mode -> rpc (Wire.Open { client = id; path; mode }));
    close;
    read =
      (fun path ->
        rpc (Wire.Read { client = id; path; offset = 0; count = bytes }));
    write =
      (fun path ->
        rpc (Wire.Write { client = id; path; offset = 0; data = payload }));
    finish =
      (fun () ->
        for k = 0 to files - 1 do
          ignore (close (shared_file k))
        done;
        tr.CC.t_close ();
        (0, 0, p.sent));
  }

let shared s ~now ~id ~pick ~write_frac ~files ~seconds =
  let rng = Prng.create ~seed:(0xC0FFEE + id) in
  let latency = latency_histogram () in
  let ops = ref 0 and eagain = ref 0 and errors = ref 0 in
  let ( let* ) = Result.bind in
  let t0 = now () in
  let deadline = t0 +. seconds in
  for k = 0 to files - 1 do
    match s.open_ (shared_file k) Client.RO with
    | Ok () -> ()
    | Error e -> fail "open %s: %s" (shared_file k) (Errno.to_string e)
  done;
  while now () < deadline do
    let path = shared_file (pick rng) in
    let t1 = now () in
    let r =
      if write_frac > 0. && Prng.bool rng write_frac then begin
        let r =
          let* () = s.close path in
          let* () = s.open_ path Client.WO in
          let* () = s.write path in
          let* () = s.close path in
          s.open_ path Client.RO
        in
        (* whatever failed mid-cycle, leave the handle readable *)
        if Result.is_error r then ignore (s.open_ path Client.RO);
        r
      end
      else s.read path
    in
    match r with
    | Ok () ->
      Histogram.add latency (now () -. t1);
      incr ops
    | Error Errno.EAGAIN -> incr eagain
    | Error _ -> incr errors
  done;
  let hits, misses, msgs = s.finish () in
  { ops = !ops; eagain = !eagain; errors = !errors; secs = now () -. t0;
    hits; misses; msgs; latency }

let run tr ~id workload ~cache ~depth ~files ~bytes ~seconds =
  let shared ~pick ~write_frac =
    let session = if cache then cached_session else plain_session in
    let s = session tr ~id ~files ~bytes ~payload:(String.make bytes 'y') in
    shared s ~now:tr.CC.t_now ~id ~pick ~write_frac ~files ~seconds
  in
  match workload with
  | Seq when cache -> invalid_arg "Loadgen.run: seq has no cached session"
  | Seq -> seq tr ~id ~depth ~files ~bytes ~seconds
  | Zipf theta ->
    (* Zipf(theta) over ranks 1..files *)
    let weights = Array.init files (fun i -> float_of_int (i + 1) ** -.theta) in
    shared ~pick:(fun rng -> Prng.choose rng weights) ~write_frac:0.
  | Readmostly ratio ->
    shared ~pick:(fun rng -> Prng.int rng files) ~write_frac:(1. -. ratio)

(* {1 Around the run} *)

let setup_shared tr ~files ~bytes =
  let p = plain tr in
  (match call p (Wire.Mkdir shared_dir) with
  | Wire.Ok_unit | Wire.Err Errno.EEXIST -> () (* an earlier run made it *)
  | r -> fail "mkdir %s: %s" shared_dir (pp_reply r));
  let expect what req =
    match call p req with
    | Wire.Ok_unit -> ()
    | r -> fail "%s: %s" what (pp_reply r)
  in
  let data = String.make bytes 'i' and client = 999999 in
  for k = 0 to files - 1 do
    let path = shared_file k in
    expect ("open " ^ path) (Wire.Open { client; path; mode = Client.WO });
    expect ("write " ^ path) (Wire.Write { client; path; offset = 0; data });
    expect ("close " ^ path) (Wire.Close { client; path })
  done;
  tr.CC.t_close ()

let consistency_probe ta tb ~bytes =
  let path = shared_file 0 in
  let pat c = String.make bytes c in
  let a = CC.create ~client:100001 ta and b = CC.create ~client:100002 tb in
  let step name r =
    Result.iter_error
      (fun e ->
        Log.err (fun m ->
            m "consistency probe: %s failed (%s)" name (Errno.to_string e)))
      r;
    r
  in
  let check name cond = step name (if cond then Ok () else Error Errno.EIO) in
  let ( let* ) = Result.bind in
  let probe () =
    let* () = step "A open WO" (CC.open_ a path Client.WO) in
    let* () = step "A write P" (CC.write a path ~offset:0 ~data:(pat 'P')) in
    let* () = step "A close" (CC.close_ a path) in
    let* () = step "B open RO" (CC.open_ b path Client.RO) in
    let* d1 = step "B read 1" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = check "B sees P" (d1 = pat 'P') in
    (* warm B's cache, then rewrite behind its back *)
    let* _ = step "B read 2" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = step "A reopen WO" (CC.open_ a path Client.WO) in
    let* () = step "A write Q" (CC.write a path ~offset:0 ~data:(pat 'Q')) in
    let* () = step "A reclose" (CC.close_ a path) in
    (* the Invalidate rides B's connection; give its writer a beat *)
    Unix.sleepf 0.1;
    let* d2 = step "B read 3" (CC.read b path ~offset:0 ~count:bytes) in
    let* () = check "B sees Q" (d2 = pat 'Q') in
    let* () = check "B was invalidated" (CC.invalidations b >= 1) in
    step "B close" (CC.close_ b path)
  in
  let ok = Result.is_ok (probe ()) in
  CC.disconnect a;
  CC.disconnect b;
  ok

let shutdown tr =
  ignore (send (plain tr) Wire.Shutdown);
  tr.CC.t_close ()

(* {1 Reporting} *)

let summary ~shards ~clients ~depth workload ~cache ~consistency results =
  let latency = latency_histogram () in
  List.iter (fun r -> Histogram.merge ~into:latency r.latency) results;
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let ops = sum (fun r -> r.ops) and eagain = sum (fun r -> r.eagain) in
  let hits = sum (fun r -> r.hits) and misses = sum (fun r -> r.misses) in
  let errors =
    sum (fun r -> r.errors) + Bool.to_int (consistency = Some false)
  in
  let secs = List.fold_left (fun a r -> Float.max a r.secs) 0.001 results in
  let ops_per_sec = float_of_int ops /. secs in
  let hit_rate =
    if hits = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  let us q =
    if Histogram.total latency = 0 then 0.
    else 1e6 *. Histogram.quantile latency q
  in
  let int n = Json.Num (float_of_int n) in
  let json =
    Json.Obj
      ([ ("shards", int shards); ("clients", int clients);
         ("depth", int depth); ("workload", Json.Str (workload_name workload));
         ("cache", Json.Bool cache); ("seconds", Json.num secs);
         ("ops", int ops); ("eagain", int eagain); ("errors", int errors);
         ("ops_per_sec", Json.num ops_per_sec); ("client_hits", int hits);
         ("client_misses", int misses);
         ("client_msgs", int (sum (fun r -> r.msgs)));
         ("hit_rate", Json.num hit_rate); ("p50_us", Json.num (us 0.50));
         ("p99_us", Json.num (us 0.99)); ("p999_us", Json.num (us 0.999)) ]
      @ Option.to_list
          (Option.map (fun c -> ("consistency", Json.Bool c)) consistency))
  in
  let line =
    Printf.sprintf
      "pfs loadgen: %d shard(s), %d clients, %s%s: %d ops in %.2fs — %.0f \
       ops/s, p50 %.0fµs p99 %.0fµs p999 %.0fµs (%d eagain, %d errors%s)"
      shards clients (workload_name workload)
      (if cache then " +cache" else "")
      ops secs ops_per_sec (us 0.50) (us 0.99) (us 0.999) eagain errors
      (match consistency with
      | Some true -> ", consistency ok"
      | Some false -> ", CONSISTENCY FAILED"
      | None -> "")
  in
  (json, line)

let splice runs doc =
  let ops_per_sec run =
    match Json.member "ops_per_sec" run with Some (Json.Num x) -> x | _ -> 0.
  in
  let speedup =
    match (runs, List.rev runs) with
    | first :: _ :: _, last :: _ when ops_per_sec first > 0. ->
      Json.num (ops_per_sec last /. ops_per_sec first)
    | _ -> Json.Null
  in
  let loadgen =
    Option.value (Json.member "loadgen" doc) ~default:(Json.Obj [])
    |> Json.set "runs" (Json.Arr runs)
    |> Json.set "speedup" speedup
  in
  Json.set "loadgen" loadgen doc
