(* Per-path grant state for the leased client cache: Sprite's
   version/holder machine, one table per server. Mutex-guarded because
   shard fibres on different domains consult it; operations are short
   and allocation-free on the hot path.

   The server never blocks on a client (no Sprite-style synchronous
   recall): a write-open bumps the version and *pushes* Invalidate
   frames to the other holders, and concurrent write sharing downgrades
   everyone to write-through ([cacheable = false]) until all holders
   close. Lease expiry is enforced client-side — the grant carries the
   duration, the client stops serving local hits when it lapses — so
   server holder state is bounded only by connection lifetime
   ({!drop_client} runs at disconnect). *)

type holder = { h_client : int; mutable h_write : bool }

type fstate = {
  mutable version : int;
  mutable holders : holder list;
  mutable cacheable : bool;
}

type t = {
  lease_s : float;
  files : (string, fstate) Hashtbl.t;
  lock : Mutex.t;
}

type grant_info = {
  gi_version : int;
  gi_cacheable : bool;
  gi_invalidate : int list;
}

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
    let st = { version = 1; holders = []; cacheable = true } in
    Hashtbl.replace t.files path st;
    st

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
      (match List.find_opt (fun h -> h.h_client = client) st.holders with
      | Some h -> h.h_write <- write
      | None ->
        st.holders <- { h_client = client; h_write = write } :: st.holders);
      let others =
        List.filter (fun h -> h.h_client <> client) st.holders
      in
      let invalidate =
        if write then begin
          st.version <- st.version + 1;
          List.map (fun h -> h.h_client) others
        end
        else if List.exists (fun h -> h.h_write) others then
          (* a reader arriving on a delayed-write file: the writer must
             flush and go write-through *)
          List.filter_map
            (fun h -> if h.h_write then Some h.h_client else None)
            others
        else []
      in
      (* concurrent write sharing: a writer plus any other holder *)
      if others <> [] && List.exists (fun h -> h.h_write) st.holders then
        st.cacheable <- false;
      {
        gi_version = st.version;
        gi_cacheable = st.cacheable;
        gi_invalidate = invalidate;
      })

(* Unlike Sprite (which waits for every holder to leave), caching may
   resume as soon as the last writer departs: a writer's close commits
   its dirty blocks in the same Writeback frame, so the server copy is
   current the moment no writer holds the file. Surviving readers pick
   the good news up at their next lease renewal. *)
let refresh_cacheable st =
  if not (List.exists (fun h -> h.h_write) st.holders) then
    st.cacheable <- true

let close_ t ~client ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> ()
      | Some st ->
        st.holders <-
          List.filter (fun h -> h.h_client <> client) st.holders;
        refresh_cacheable st)

let version t ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> 1
      | Some st -> st.version)

let note_write t ~client ~path =
  locked t (fun () ->
      match Hashtbl.find_opt t.files path with
      | None -> None (* never granted: no cache can hold stale data *)
      | Some st ->
        st.version <- st.version + 1;
        let holders =
          List.filter_map
            (fun h ->
              if h.h_client <> client then Some h.h_client else None)
            st.holders
        in
        Some (st.version, holders))

let drop_client t ~client =
  locked t (fun () ->
      Hashtbl.fold
        (fun path st acc ->
          if List.exists (fun h -> h.h_client = client) st.holders then begin
            st.holders <-
              List.filter (fun h -> h.h_client <> client) st.holders;
            refresh_cacheable st;
            path :: acc
          end
          else acc)
        t.files [])
