(* Per-path grant state for the leased client cache: Sprite's
   version/holder machine, one table per server. Mutex-guarded because
   shard fibres on different domains consult it; operations are short
   and allocation-free on the hot path.

   The server never blocks on a client (no Sprite-style synchronous
   recall). Cacheability is not stored: it is a function of the holder
   set — a writer plus any other holder is concurrent write sharing,
   uncacheable; anything else is cacheable — worked out before and
   after every change. A change that moves the version or flips
   cacheability names the other holders, and the server pushes each of
   them an [Invalidate] carrying the path's version and cacheability
   as they are now: a revocation the moment sharing starts, a
   restoration the moment it ends. Lease expiry is enforced
   client-side — the grant carries the duration, the client stops
   serving local hits when it lapses — so server holder state is
   bounded only by connection lifetime ({!drop_client} runs at
   disconnect). *)

type holder = { h_client : int; mutable h_write : bool }

type fstate = { mutable version : int; mutable holders : holder list }

type t = {
  lease_s : float;
  files : (string, fstate) Hashtbl.t;
  lock : Mutex.t;
}

type notice = { n_version : int; n_cacheable : bool; n_notify : int list }

let create ~lease_s () =
  if lease_s <= 0. then invalid_arg "Lease.create: lease_s must be positive";
  { lease_s; files = Hashtbl.create 256; lock = Mutex.create () }

let lease_s t = t.lease_s

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fstate t path =
  match Hashtbl.find_opt t.files path with
  | Some st -> st
  | None ->
    let st = { version = 1; holders = [] } in
    Hashtbl.replace t.files path st;
    st

(* Sprite's rule: concurrent write sharing is a writer plus any other
   holder. Unlike Sprite, which waits for every holder to leave,
   caching resumes as soon as no writer shares the file: a writer's
   close commits its dirty blocks in the same Writeback frame, so the
   server copy is current the moment it departs. *)
let cacheable st =
  match st.holders with
  | [] | [ _ ] -> true
  | hs -> not (List.exists (fun h -> h.h_write) hs)

let others st ~client =
  List.filter_map
    (fun h -> if h.h_client <> client then Some h.h_client else None)
    st.holders

let notice st notify =
  { n_version = st.version; n_cacheable = cacheable st; n_notify = notify }

let held t ~client ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> None
      | Some st ->
        List.find_map
          (fun h -> if h.h_client = client then Some h.h_write else None)
          st.holders)

let open_grant t ~client ~path ~write =
  locked t (fun () ->
      let st = fstate t path in
      let was = cacheable st in
      (match List.find_opt (fun h -> h.h_client = client) st.holders with
      | Some h -> h.h_write <- write
      | None ->
        st.holders <- { h_client = client; h_write = write } :: st.holders);
      let now = cacheable st in
      (* a write-open moves the data; so, for ordering, does the start
         of sharing: every revocation carries a newer version than any
         restoration made before it. A hang-up's restoration is pushed
         from the connection's domain and may land after a later
         revocation; its older version tells the client to drop it. *)
      if write || (was && not now) then st.version <- st.version + 1;
      notice st (if write || was <> now then others st ~client else []))

(* Losing a holder can only end write sharing; when it does, the
   holders left are owed the restoration. *)
let release st ~client =
  let was = cacheable st in
  st.holders <- List.filter (fun h -> h.h_client <> client) st.holders;
  if was || not (cacheable st) then None
  else Some (notice st (List.map (fun h -> h.h_client) st.holders))

let close_ t ~client ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> None
      | Some st -> release st ~client)

let note_write t ~client ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> None (* never granted: no cache can hold stale data *)
      | Some st ->
        st.version <- st.version + 1;
        Some (notice st (others st ~client)))

let drop_client t ~client =
  locked t (fun () ->
      Hashtbl.fold
        (fun path st acc ->
          if List.exists (fun h -> h.h_client = client) st.holders then
            match release st ~client with
            | Some n -> (path, n) :: acc
            | None -> acc
          else acc)
        t.files [])
