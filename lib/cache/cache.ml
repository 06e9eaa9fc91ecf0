module Sched = Capfs_sched.Sched
module Mailbox = Capfs_sched.Mailbox
module Data = Capfs_disk.Data
module Stats = Capfs_stats
module Counter = Capfs_stats.Counter
module Tracer = Capfs_obs.Tracer
module Ev = Capfs_obs.Event
module Ktbl = Hashtbl.Make (Block.Key)
module Itbl = Block.Ino_table

let src = Logs.Src.create "capfs.cache" ~doc:"file-system block cache"

module Log = (val Logs.src_log src : Logs.LOG)

type flush_trigger =
  | Demand
  | Periodic of { max_age : float; scan_interval : float }

type flush_scope = [ `Whole_file | `Single_block ]

type config = {
  block_bytes : int;
  capacity_blocks : int;
  nvram_blocks : int;
  trigger : flush_trigger;
  scope : flush_scope;
  async_flush : bool;
  mem_copy_rate : float;
  coalesce : bool;
  flush_window : int;
  max_extent_blocks : int;
}

let default_config ~capacity_blocks =
  {
    block_bytes = 4096;
    capacity_blocks;
    nvram_blocks = 0;
    trigger = Periodic { max_age = 30.; scan_interval = 5. };
    scope = `Whole_file;
    async_flush = true;
    mem_copy_rate = 0.;
    coalesce = false;
    flush_window = 4;
    max_extent_blocks = 64;
  }

(* A flush job: blocks with the version each had when snapshotted. *)
type flush_job = { job_blocks : Block.t array; job_versions : int array }

(* Stat handles, resolved once at [create] so the hot paths never
   concatenate or hash a stat name (see {!Stats.Counter}). *)
type counters = {
  hits : Counter.t;
  misses : Counter.t;
  evictions : Counter.t;
  flushed_blocks : Counter.t;
  absorbed_writes : Counter.t;
  overwrites : Counter.t;
  read_stall : Counter.t;
  write_stall : Counter.t;
  dirty_blocks : Counter.t;
  nvram_used : Counter.t;
}

type t = {
  sched : Sched.t;
  cfg : config;
  cname : string;
  c : counters;
  (* [copy_seconds] of one block at [mem_copy_rate], fixed at create so
     the hot paths never redo the division (or box its result) *)
  block_copy_s : float;
  writeback : (int * int * Data.t) list -> unit;
  policy : Replacement.t;
  table : Block.t Ktbl.t;
  by_ino : Block.t Itbl.t; (* ino -> first block of its file chain *)
  dirty : Block.t; (* dirty-list sentinel: state Dirty only, front = oldest *)
  mutable dirty_len : int;
  filling : Sched.event Ktbl.t; (* in-flight read fills *)
  mutable volatile_used : int;
  mutable nvram_count : int;
  mutable flushing_count : int;
  mutable inflight_extents : int; (* extent writebacks in the window *)
  space_ev : Sched.event;
  extent_done_ev : Sched.event;
  flush_q : flush_job Mailbox.t;
}

let stat_names =
  [
    "hits"; "misses"; "evictions"; "flushed_blocks"; "absorbed_writes";
    "overwrites"; "read_stall"; "write_stall"; "dirty_blocks"; "nvram_used";
  ]

let null_counters =
  {
    hits = Counter.null;
    misses = Counter.null;
    evictions = Counter.null;
    flushed_blocks = Counter.null;
    absorbed_writes = Counter.null;
    overwrites = Counter.null;
    read_stall = Counter.null;
    write_stall = Counter.null;
    dirty_blocks = Counter.null;
    nvram_used = Counter.null;
  }

let resolve_counters r name =
  let c s = Stats.Registry.counter r (name ^ "." ^ s) in
  {
    hits = c "hits";
    misses = c "misses";
    evictions = c "evictions";
    flushed_blocks = c "flushed_blocks";
    absorbed_writes = c "absorbed_writes";
    overwrites = c "overwrites";
    read_stall = c "read_stall";
    write_stall = c "write_stall";
    dirty_blocks = c "dirty_blocks";
    nvram_used = c "nvram_used";
  }

let config t = t.cfg
let now t = Sched.now t.sched
let tracer t = Sched.tracer t.sched

let trace_evict t (victim : Block.t) =
  let tr = tracer t in
  if Tracer.enabled tr then
    Tracer.emit tr ~time:(now t)
      (Ev.Cache_evict
         { cache = t.cname; ino = Block.ino victim; index = Block.index victim })

let find t key = Ktbl.find_opt t.table key

let copy_delay t =
  if t.cfg.mem_copy_rate > 0. then Sched.sleep t.sched t.block_copy_s

let touch t b =
  b.Block.times.Block.last_access <- now t;
  b.Block.access_count <- b.Block.access_count + 1

(* table / by_ino bookkeeping: each cached block is in [table] and on
   its file's chain, a circular list through [file_prev]/[file_next]
   whose first block [by_ino] holds. *)

let table_add t b =
  Ktbl.replace t.table b.Block.key b;
  match Itbl.find t.by_ino (Block.ino b) with
  | first ->
    let last = first.Block.file_prev in
    b.Block.file_prev <- last;
    b.Block.file_next <- first;
    last.Block.file_next <- b;
    first.Block.file_prev <- b
  | exception Not_found -> Itbl.replace t.by_ino (Block.ino b) b

let table_remove t b =
  Ktbl.remove t.table b.Block.key;
  let ino = Block.ino b in
  match Itbl.find t.by_ino ino with
  | first ->
    let next = b.Block.file_next in
    if first == b then
      if next == b then Itbl.remove t.by_ino ino
      else Itbl.replace t.by_ino ino next;
    b.Block.file_prev.Block.file_next <- next;
    next.Block.file_prev <- b.Block.file_prev;
    b.Block.file_prev <- b;
    b.Block.file_next <- b
  | exception Not_found -> ()

(* [f] over the file's chain, first block first; [f] must not unlink. *)
let fold_file t ino f acc =
  match Itbl.find t.by_ino ino with
  | first ->
    let rec go b acc =
      let acc = f acc b in
      if b.Block.file_next == first then acc else go b.Block.file_next acc
    in
    go first acc
  | exception Not_found -> acc

let blocks_of_ino t ino = fold_file t ino (fun acc b -> b :: acc) []

(* A key packs the ino above the index, so key order is (ino, index)
   order. *)
let keys_increasing (blocks : Block.t array) =
  let rec go i =
    i >= Array.length blocks
    || ((blocks.(i - 1).Block.key :> int) < (blocks.(i).Block.key :> int)
       && go (i + 1))
  in
  go 1

(* The whole-file flush path: every Dirty block of [ino], in index
   order. One pass over the file chain fills the array. Blocks join the
   chain in the order they were cached, which for a file written front
   to back is index order already, so the sort runs only when the check
   finds the array out of order. *)
let dirty_blocks_of_ino t ino =
  match Itbl.find t.by_ino ino with
  | exception Not_found -> [||]
  | first ->
    let buf = ref [||] and n = ref 0 in
    let rec go b =
      if b.Block.state = Block.Dirty then begin
        if !n = Array.length !buf then begin
          let grown = Array.make (Stdlib.max 8 (2 * !n)) b in
          Array.blit !buf 0 grown 0 !n;
          buf := grown
        end;
        !buf.(!n) <- b;
        incr n
      end;
      if b.Block.file_next != first then go b.Block.file_next
    in
    go first;
    let arr = if !n = Array.length !buf then !buf else Array.sub !buf 0 !n in
    if not (keys_increasing arr) then
      Array.sort (fun a b -> compare (Block.index a) (Block.index b)) arr;
    arr

(* dirty-list bookkeeping: the list holds blocks in state Dirty only,
   ordered by the time they became dirty (front = oldest), linked
   through [dirty_prev]/[dirty_next] around the [dirty] sentinel. *)

let dirty_push t b =
  let last = t.dirty.Block.dirty_prev in
  b.Block.dirty_prev <- last;
  b.Block.dirty_next <- t.dirty;
  last.Block.dirty_next <- b;
  t.dirty.Block.dirty_prev <- b;
  t.dirty_len <- t.dirty_len + 1

let dirty_remove t b =
  if b.Block.dirty_next != b then begin
    b.Block.dirty_prev.Block.dirty_next <- b.Block.dirty_next;
    b.Block.dirty_next.Block.dirty_prev <- b.Block.dirty_prev;
    b.Block.dirty_prev <- b;
    b.Block.dirty_next <- b;
    t.dirty_len <- t.dirty_len - 1
  end

(* The oldest dirty block, or the sentinel when none is. *)
let oldest_dirty t = t.dirty.Block.dirty_next

let dirty_blocks t =
  let rec go b acc =
    if b == t.dirty then List.rev acc else go b.Block.dirty_next (b :: acc)
  in
  go (oldest_dirty t) []

let release_frame t b =
  if b.Block.in_nvram then begin
    b.Block.in_nvram <- false;
    t.nvram_count <- t.nvram_count - 1
  end
  else t.volatile_used <- t.volatile_used - 1

let space_freed t = Sched.broadcast t.sched t.space_ev

(* {2 Flushing} *)

let snapshot_for_flush t (blocks : Block.t array) =
  let n =
    Array.fold_left
      (fun acc b -> if b.Block.state = Block.Dirty then acc + 1 else acc)
      0 blocks
  in
  if n = 0 then None
  else begin
    let job_blocks = Array.make n blocks.(0) in
    let job_versions = Array.make n 0 in
    let j = ref 0 in
    Array.iter
      (fun b ->
        if b.Block.state = Block.Dirty then begin
          b.Block.state <- Block.Flushing;
          dirty_remove t b;
          t.flushing_count <- t.flushing_count + 1;
          job_blocks.(!j) <- b;
          job_versions.(!j) <- b.Block.version;
          incr j
        end)
      blocks;
    Some { job_blocks; job_versions }
  end

(* Re-house a block that just came clean out of NVRAM: it needs a
   volatile frame, possibly evicting a clean victim; with no frame
   obtainable the block is simply dropped (it is clean, that is safe). *)
let rehouse_from_nvram t b =
  if t.volatile_used < t.cfg.capacity_blocks then begin
    t.volatile_used <- t.volatile_used + 1;
    Replacement.insert t.policy b
  end
  else
    match Replacement.victim t.policy with
    | Some victim ->
      table_remove t victim;
      Counter.incr t.c.evictions;
      trace_evict t victim;
      (* victim frees a frame; [b] takes it: volatile_used unchanged *)
      Replacement.insert t.policy b
    | None -> table_remove t b

(* Completion bookkeeping for one written-back block: release the frame
   of a zombie, otherwise come clean — unless it was re-dirtied while in
   flight (version moved on), in which case it is back on the dirty list
   and stays there. *)
let complete_flushed t b version =
  t.flushing_count <- t.flushing_count - 1;
  Counter.incr t.c.flushed_blocks;
  if b.Block.zombie then release_frame t b
  else if b.Block.state = Block.Flushing && b.Block.version = version then begin
    b.Block.state <- Block.Clean;
    if b.Block.in_nvram then begin
      b.Block.in_nvram <- false;
      t.nvram_count <- t.nvram_count - 1;
      rehouse_from_nvram t b
    end
    else Replacement.insert t.policy b
  end

(* Write back in bounded chunks, releasing frames and waking waiters
   after each — the §5.2 lesson: a thread short of one frame must not
   sit through the write-back of a whole large file. *)
let flush_chunk_blocks = 8

let do_writeback t (job : flush_job) =
  let n = Array.length job.job_blocks in
  if n = 0 then space_freed t
  else begin
    let pos = ref 0 in
    while !pos < n do
      let len = min flush_chunk_blocks (n - !pos) in
      let payload = ref [] in
      for i = !pos + len - 1 downto !pos do
        let b = job.job_blocks.(i) in
        payload := (Block.ino b, Block.index b, b.Block.data) :: !payload
      done;
      let tr = tracer t in
      if Tracer.enabled tr then
        Tracer.emit tr ~time:(now t)
          (Ev.Cache_flush { cache = t.cname; blocks = len });
      t.writeback !payload;
      for i = !pos to !pos + len - 1 do
        complete_flushed t job.job_blocks.(i) job.job_versions.(i)
      done;
      space_freed t;
      pos := !pos + len
    done
  end

(* {2 Clustered write-back (coalesce = true)}

   The flush set is sorted by (ino, index) and cut into extents —
   maximal runs of one file's consecutive blocks, capped at
   [max_extent_blocks]. Each extent travels as a single vectored
   [writeback] call (one [write_blocks] batch, so the layout can turn
   it into one scatter-gather disk request), and up to [flush_window]
   extents are in flight at once: write-behind pipelining through a
   bounded window. The call blocks until the whole job is stable, so
   the synchronous flush paths keep their semantics. *)
let do_writeback_clustered t (job : flush_job) =
  let n = Array.length job.job_blocks in
  if n = 0 then space_freed t
  else begin
    let blocks, versions =
      if keys_increasing job.job_blocks then (job.job_blocks, job.job_versions)
      else begin
        let order = Array.init n (fun i -> i) in
        Array.sort
          (fun i j ->
            let a = job.job_blocks.(i) and b = job.job_blocks.(j) in
            let c = compare (Block.ino a) (Block.ino b) in
            if c <> 0 then c
            else
              let c = compare (Block.index a) (Block.index b) in
              if c <> 0 then c
              else compare job.job_versions.(i) job.job_versions.(j))
          order;
        ( Array.map (fun i -> job.job_blocks.(i)) order,
          Array.map (fun i -> job.job_versions.(i)) order )
      end
    in
    (* extent boundaries: file change, index gap or duplicate, cap *)
    let extents = ref [] and start = ref 0 in
    for k = 1 to n do
      let cut =
        k = n
        || k - !start >= t.cfg.max_extent_blocks
        ||
        let prev = blocks.(k - 1) and cur = blocks.(k) in
        Block.ino cur <> Block.ino prev
        || Block.index cur <> Block.index prev + 1
      in
      if cut then begin
        extents := (!start, k - !start) :: !extents;
        start := k
      end
    done;
    let extents = List.rev !extents in
    let remaining = ref (List.length extents) in
    List.iter
      (fun (off, len) ->
        while t.inflight_extents >= t.cfg.flush_window do
          Sched.await t.sched t.extent_done_ev
        done;
        t.inflight_extents <- t.inflight_extents + 1;
        ignore
          (Sched.spawn t.sched ~name:(t.cname ^ ".extent") (fun () ->
               let payload = ref [] in
               for k = off + len - 1 downto off do
                 let b = blocks.(k) in
                 payload := (Block.ino b, Block.index b, b.Block.data) :: !payload
               done;
               let tr = tracer t in
               if Tracer.enabled tr then
                 Tracer.emit tr ~time:(now t)
                   (Ev.Cache_flush { cache = t.cname; blocks = len });
               t.writeback !payload;
               for k = off to off + len - 1 do
                 complete_flushed t blocks.(k) versions.(k)
               done;
               space_freed t;
               t.inflight_extents <- t.inflight_extents - 1;
               decr remaining;
               Sched.broadcast t.sched t.extent_done_ev)))
      extents;
    while !remaining > 0 do
      Sched.await t.sched t.extent_done_ev
    done
  end

let do_writeback t job =
  if t.cfg.coalesce then do_writeback_clustered t job else do_writeback t job

let flush_blocks t blocks =
  match snapshot_for_flush t blocks with
  | None -> ()
  | Some job ->
    if t.cfg.async_flush then Mailbox.send t.flush_q job else do_writeback t job

(* With coalescing on, a single-block flush drags along the oldest
   block's file-contiguous dirty neighbours (up to [max_extent_blocks]):
   they would each force their own demand flush moments later, and as
   one extent they cost one disk request and one metadata update. *)
let cluster_around_oldest t (oldest : Block.t) =
  let ino = Block.ino oldest in
  let dirty_at i =
    i >= 0 && i <= Block.Key.max_index
    &&
    match Ktbl.find t.table (Block.Key.v ino i) with
    | b -> b.Block.state = Block.Dirty
    | exception Not_found -> false
  in
  let idx = Block.index oldest in
  let cap = t.cfg.max_extent_blocks in
  let lo = ref idx and hi = ref idx in
  while !hi - !lo + 1 < cap && dirty_at (!lo - 1) do
    decr lo
  done;
  while !hi - !lo + 1 < cap && dirty_at (!hi + 1) do
    incr hi
  done;
  Array.init (!hi - !lo + 1) (fun k ->
      Ktbl.find t.table (Block.Key.v ino (!lo + k)))

(* Flush "through the oldest dirty block": the whole owning file or just
   the block itself, per the configured scope. *)
let flush_oldest t =
  let oldest = oldest_dirty t in
  if oldest == t.dirty then false
  else begin
    let batch =
      match t.cfg.scope with
      | `Single_block ->
        if t.cfg.coalesce then cluster_around_oldest t oldest else [| oldest |]
      | `Whole_file -> dirty_blocks_of_ino t (Block.ino oldest)
    in
    flush_blocks t batch;
    true
  end

(* Nudge a flush, then block until space may be available. A synchronous
   flush frees frames before returning, so re-check [satisfied] instead of
   awaiting a broadcast that already happened. *)
let wait_for_space t ~satisfied =
  (* Initiate a drain only when none is outstanding: every waiter
     kicking off its own flush floods the flusher with duplicate work. *)
  let progressed =
    if t.flushing_count = 0 then flush_oldest t else true
  in
  if (not progressed) && t.flushing_count = 0 then
    Log.warn (fun m ->
        m "%s: stalled with nothing to flush (all frames pinned?)" t.cname);
  if not (satisfied ()) then Sched.await t.sched t.space_ev

(* {2 Frame allocation} *)

let rec reserve_volatile t ~stall =
  if t.volatile_used < t.cfg.capacity_blocks then
    t.volatile_used <- t.volatile_used + 1
  else
    match Replacement.victim t.policy with
    | Some victim ->
      table_remove t victim;
      Counter.incr t.c.evictions;
      trace_evict t victim
    | None ->
      let t0 = now t in
      wait_for_space t ~satisfied:(fun () ->
          t.volatile_used < t.cfg.capacity_blocks
          || Replacement.count t.policy > 0);
      Counter.record stall (now t -. t0);
      reserve_volatile t ~stall

let rec acquire_nvram t =
  if t.nvram_count < t.cfg.nvram_blocks then
    t.nvram_count <- t.nvram_count + 1
  else begin
    let t0 = now t in
    wait_for_space t ~satisfied:(fun () ->
        t.nvram_count < t.cfg.nvram_blocks);
    Counter.record t.c.write_stall (now t -. t0);
    acquire_nvram t
  end

(* {2 Reads} *)

(* the hit path avoids [find]'s option allocation: one table probe,
   no [Some] box, per read *)
let rec read t key ~fill =
  match Ktbl.find t.table key with
  | b ->
    Counter.incr t.c.hits;
    let tr = tracer t in
    if Tracer.enabled tr then
      Tracer.emit tr ~time:(now t)
        (Ev.Cache_hit
           { cache = t.cname; ino = Block.Key.ino key; index = Block.Key.index key });
    if b.Block.state = Block.Clean then Replacement.access t.policy b;
    touch t b;
    copy_delay t;
    b.Block.data
  | exception Not_found -> (
    Counter.incr t.c.misses;
    let tr = tracer t in
    if Tracer.enabled tr then
      Tracer.emit tr ~time:(now t)
        (Ev.Cache_miss
           { cache = t.cname; ino = Block.Key.ino key; index = Block.Key.index key });
    match Ktbl.find_opt t.filling key with
    | Some ev ->
      Sched.await t.sched ev;
      read t key ~fill
    | None ->
      let ev = Sched.new_event ~name:"cache.fill" t.sched in
      Ktbl.replace t.filling key ev;
      reserve_volatile t ~stall:t.c.read_stall;
      let data = fill key in
      Ktbl.remove t.filling key;
      Sched.broadcast t.sched ev;
      (match find t key with
      | Some b ->
        (* a writer created the block while we were reading the stale
           copy from disk: their contents win, our frame is returned *)
        t.volatile_used <- t.volatile_used - 1;
        space_freed t;
        if b.Block.state = Block.Clean then Replacement.access t.policy b;
        touch t b;
        copy_delay t;
        b.Block.data
      | None ->
        let b = Block.make ~key ~data ~now:(now t) in
        table_add t b;
        Replacement.insert t.policy b;
        touch t b;
        copy_delay t;
        data))

let peek t key = Option.map (fun b -> b.Block.data) (find t key)

(* {2 Writes} *)

let mark_dirty t b data =
  b.Block.data <- data;
  b.Block.version <- b.Block.version + 1;
  b.Block.state <- Block.Dirty;
  b.Block.times.Block.dirtied_at <- now t;
  dirty_push t b;
  touch t b

let rec write t key data =
  (match Ktbl.find t.table key with
  | b when b.Block.state = Block.Dirty ->
    (* overwrite in memory: one disk write saved *)
    b.Block.data <- data;
    b.Block.version <- b.Block.version + 1;
    touch t b;
    Counter.incr t.c.overwrites
  | b when b.Block.state = Block.Flushing ->
    (* re-dirty a block whose old contents are being written out *)
    mark_dirty t b data;
    Counter.incr t.c.overwrites
  | b ->
    (* clean block becomes dirty *)
    if t.cfg.nvram_blocks > 0 then begin
      Block.pin b;
      acquire_nvram t;
      Block.unpin b;
      (* During the stall another client may have dirtied this very
         block (hot shared files) or invalidated it: only proceed if it
         is still the same, still-clean block. *)
      let still_ours =
        match find t key with
        | Some cur -> cur == b && b.Block.state = Block.Clean
        | None -> false
      in
      if still_ours then begin
        Replacement.forget t.policy b;
        t.volatile_used <- t.volatile_used - 1;
        space_freed t;
        b.Block.in_nvram <- true;
        mark_dirty t b data
      end
      else begin
        (* invalidated while we stalled: release and retry *)
        t.nvram_count <- t.nvram_count - 1;
        space_freed t;
        write t key data
      end
    end
    else begin
      Replacement.forget t.policy b;
      mark_dirty t b data
    end
  | exception Not_found ->
    if t.cfg.nvram_blocks > 0 then begin
      acquire_nvram t;
      match find t key with
      | Some _ ->
        (* another writer beat us to the insert *)
        t.nvram_count <- t.nvram_count - 1;
        space_freed t;
        write t key data
      | None ->
        let b = Block.make ~key ~data ~now:(now t) in
        b.Block.in_nvram <- true;
        table_add t b;
        mark_dirty t b data
    end
    else begin
      reserve_volatile t ~stall:t.c.write_stall;
      match find t key with
      | Some _ ->
        t.volatile_used <- t.volatile_used - 1;
        space_freed t;
        write t key data
      | None ->
        let b = Block.make ~key ~data ~now:(now t) in
        table_add t b;
        mark_dirty t b data
    end);
  copy_delay t;
  Counter.record t.c.dirty_blocks (float_of_int t.dirty_len);
  Counter.record t.c.nvram_used (float_of_int t.nvram_count)

(* {2 Invalidation} *)

let invalidate_block t b =
  match b.Block.state with
  | Block.Clean ->
    Replacement.forget t.policy b;
    table_remove t b;
    t.volatile_used <- t.volatile_used - 1;
    space_freed t
  | Block.Dirty ->
    dirty_remove t b;
    table_remove t b;
    release_frame t b;
    Counter.incr t.c.absorbed_writes;
    space_freed t
  | Block.Flushing ->
    (* the flusher holds a snapshot; it releases the frame on
       completion *)
    b.Block.zombie <- true;
    table_remove t b;
    Counter.incr t.c.absorbed_writes

let truncate t ino ~from =
  blocks_of_ino t ino
  |> List.filter (fun b -> Block.index b >= from)
  |> List.iter (invalidate_block t)

let remove_file t ino = List.iter (invalidate_block t) (blocks_of_ino t ino)

(* {2 Synchronous flushing} *)

let file_has_unstable t ino =
  fold_file t ino (fun acc b -> acc || Block.is_dirty b) false

let flush_file t ino =
  (* Loop: a block re-dirtied while its snapshot was in flight needs
     another round before the file is stable. *)
  while file_has_unstable t ino do
    flush_blocks t (dirty_blocks_of_ino t ino);
    if file_has_unstable t ino then Sched.await t.sched t.space_ev
  done

let sync t =
  while t.dirty_len > 0 || t.flushing_count > 0 do
    if t.dirty_len > 0 then flush_blocks t (Array.of_list (dirty_blocks t))
    else Sched.await t.sched t.space_ev
  done

(* {2 Daemons} *)

(* Concatenate queued flush jobs into one, preserving arrival order
   (the clustered write-back re-sorts by (ino, index) anyway). *)
let merge_jobs jobs =
  match jobs with
  | [ j ] -> j
  | _ ->
    {
      job_blocks = Array.concat (List.map (fun j -> j.job_blocks) jobs);
      job_versions = Array.concat (List.map (fun j -> j.job_versions) jobs);
    }

let flusher_loop t () =
  while true do
    let job = Mailbox.recv t.flush_q in
    if t.cfg.coalesce then begin
      (* batch everything already queued behind it: one flush set, so
         adjacent blocks from separate jobs cluster into one extent *)
      let jobs = ref [ job ] in
      let rec drain () =
        match Mailbox.try_recv t.flush_q with
        | Some j ->
          jobs := j :: !jobs;
          drain ()
        | None -> ()
      in
      drain ();
      do_writeback t (merge_jobs (List.rev !jobs))
    end
    else do_writeback t job
  done

let periodic_loop t ~max_age ~scan_interval () =
  while true do
    Sched.sleep t.sched scan_interval;
    while
      let b = oldest_dirty t in
      b != t.dirty && now t -. b.Block.times.Block.dirtied_at >= max_age
    do
      ignore (flush_oldest t)
    done
  done

(* {2 Construction} *)

let create ?registry ?(name = "cache") ?replacement ~writeback sched cfg =
  if cfg.capacity_blocks < 1 then invalid_arg "Cache.create: no capacity";
  if cfg.block_bytes < 1 then invalid_arg "Cache.create: bad block size";
  if cfg.nvram_blocks < 0 then invalid_arg "Cache.create: negative nvram";
  if cfg.flush_window < 1 then invalid_arg "Cache.create: empty flush window";
  if cfg.max_extent_blocks < 1 then
    invalid_arg "Cache.create: empty max extent";
  let c =
    match registry with
    | Some r ->
      List.iter
        (fun s ->
          Stats.Registry.register r (Stats.Stat.scalar (name ^ "." ^ s)))
        stat_names;
      resolve_counters r name
    | None -> null_counters
  in
  let policy =
    match replacement with Some p -> p | None -> Replacement.lru ()
  in
  let t =
    {
      sched;
      cfg;
      cname = name;
      c;
      block_copy_s =
        (if cfg.mem_copy_rate > 0. then
           Data.copy_seconds ~rate_bytes_per_sec:cfg.mem_copy_rate
             cfg.block_bytes
         else 0.);
      writeback;
      policy;
      table = Ktbl.create 1024;
      by_ino = Itbl.create 256;
      dirty = Block.sentinel ();
      dirty_len = 0;
      filling = Ktbl.create 16;
      volatile_used = 0;
      nvram_count = 0;
      flushing_count = 0;
      inflight_extents = 0;
      space_ev = Sched.new_event ~name:(name ^ ".space") sched;
      extent_done_ev = Sched.new_event ~name:(name ^ ".extent_done") sched;
      flush_q = Mailbox.create ~name:(name ^ ".flushq") sched;
    }
  in
  if cfg.async_flush then
    ignore
      (Sched.spawn sched ~name:(name ^ ".flusher") ~daemon:true
         (flusher_loop t));
  (match cfg.trigger with
  | Periodic { max_age; scan_interval } ->
    ignore
      (Sched.spawn sched ~name:(name ^ ".update") ~daemon:true
         (periodic_loop t ~max_age ~scan_interval))
  | Demand -> ());
  t

(* {2 Introspection} *)

let block_count t = Ktbl.length t.table
let dirty_count t = t.dirty_len + t.flushing_count
let nvram_used t = t.nvram_count
let contains t key = Ktbl.mem t.table key

let keys_of_file t ino =
  List.map (fun b -> b.Block.key) (blocks_of_ino t ino)
