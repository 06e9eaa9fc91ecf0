(* Tests for the block cache: hit/miss accounting, LRU lists, flush
   policies (30-s update, UPS demand, NVRAM), write absorption,
   invalidation, and the replacement policies. *)

open Capfs_cache
module Sched = Capfs_sched.Sched
module Data = Capfs_disk.Data

let vsched () = Sched.create ~clock:`Virtual ()

(* Shorthand for packed block keys. *)
let k = Block.Key.v
let key_t = Alcotest.testable Block.Key.pp Block.Key.equal

(* A writeback sink recording every flushed block, with optional delay to
   model disk time. *)
type sink = {
  mutable flushed : (int * int * Data.t) list list;
  mutable blocks_written : int;
}

let make_sink ?(delay = 0.) sched =
  let sink = { flushed = []; blocks_written = 0 } in
  let writeback batch =
    if delay > 0. then Sched.sleep sched delay;
    sink.flushed <- batch :: sink.flushed;
    sink.blocks_written <- sink.blocks_written + List.length batch
  in
  (sink, writeback)

let demand_config ?(nvram = 0) ?(scope = `Whole_file) ?(async = true)
    ?(coalesce = false) ?(flush_window = 4) ?(max_extent = 64) capacity =
  {
    Cache.block_bytes = 4096;
    capacity_blocks = capacity;
    nvram_blocks = nvram;
    trigger = Cache.Demand;
    scope;
    async_flush = async;
    mem_copy_rate = 0.;
    coalesce;
    flush_window;
    max_extent_blocks = max_extent;
  }

let run_fs f =
  let s = vsched () in
  ignore (Sched.spawn s (fun () -> f s));
  Sched.run s

let fill_const n _key = Data.sim n

let test_read_miss_then_hit () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      let fills = ref 0 in
      let fill _key =
        incr fills;
        Data.of_string "abcd"
      in
      let d1 = Cache.read c (k 1 0) ~fill in
      Alcotest.(check string) "filled" "abcd" (Data.to_string d1);
      let d2 = Cache.read c (k 1 0) ~fill in
      Alcotest.(check string) "cached" "abcd" (Data.to_string d2);
      Alcotest.(check int) "fill ran once" 1 !fills;
      Alcotest.(check int) "one block" 1 (Cache.block_count c))

let test_write_then_read_back () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      Cache.write c (k 1 0) (Data.of_string "dirty!");
      let d = Cache.read c (k 1 0) ~fill:(fun _ -> Alcotest.fail "no fill") in
      Alcotest.(check string) "dirty read back" "dirty!" (Data.to_string d);
      Alcotest.(check int) "dirty" 1 (Cache.dirty_count c))

let test_lru_eviction_order () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 3) in
      (* fill 3 frames clean *)
      for i = 0 to 2 do
        ignore (Cache.read c (k 1 i) ~fill:(fill_const 16))
      done;
      (* touch block 0 so block 1 is the LRU *)
      ignore (Cache.read c (k 1 0) ~fill:(fill_const 16));
      (* a 4th block evicts block 1 *)
      ignore (Cache.read c (k 1 3) ~fill:(fill_const 16));
      Alcotest.(check bool) "b0 kept" true (Cache.contains c (k 1 0));
      Alcotest.(check bool) "b1 evicted" false (Cache.contains c (k 1 1));
      Alcotest.(check bool) "b2 kept" true (Cache.contains c (k 1 2));
      Alcotest.(check bool) "b3 present" true (Cache.contains c (k 1 3)))

let test_dirty_blocks_never_evicted_silently () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 3) in
      Cache.write c (k 1 0) (Data.sim 16);
      Cache.write c (k 1 1) (Data.sim 16);
      Cache.write c (k 1 2) (Data.sim 16);
      (* cache full of dirty; a read miss must force a flush, not drop *)
      ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
      Sched.sleep s 0.01;
      Alcotest.(check bool) "flushed something" true (sink.blocks_written > 0))

let test_demand_flush_whole_file () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c =
        Cache.create ~writeback:wb s (demand_config ~scope:`Whole_file 4)
      in
      (* oldest dirty is file 7; file 7 has 3 dirty blocks *)
      Cache.write c (k 7 0) (Data.sim 16);
      Cache.write c (k 7 1) (Data.sim 16);
      Cache.write c (k 7 2) (Data.sim 16);
      Cache.write c (k 9 0) (Data.sim 16);
      (* full: next allocation flushes all of file 7 *)
      ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
      Sched.sleep s 0.01;
      let flushed_keys =
        List.concat sink.flushed |> List.map (fun (ino, idx, _) -> (ino, idx))
      in
      Alcotest.(check int) "3 blocks of file 7" 3 (List.length flushed_keys);
      Alcotest.(check bool) "all of ino 7" true
        (List.for_all (fun (ino, _) -> ino = 7) flushed_keys))

let test_demand_flush_single_block () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c =
        Cache.create ~writeback:wb s (demand_config ~scope:`Single_block 4)
      in
      Cache.write c (k 7 0) (Data.sim 16);
      Cache.write c (k 7 1) (Data.sim 16);
      Cache.write c (k 7 2) (Data.sim 16);
      Cache.write c (k 9 0) (Data.sim 16);
      ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
      Sched.sleep s 0.01;
      let flushed_keys =
        List.concat sink.flushed |> List.map (fun (ino, idx, _) -> (ino, idx))
      in
      Alcotest.(check (list (pair int int))) "only the oldest block"
        [ (7, 0) ] flushed_keys)

(* With coalescing on, a single-block demand flush drags the oldest
   block's file-contiguous dirty neighbours along, and the whole extent
   reaches the writeback sink as one vectored batch. *)
let test_demand_flush_single_block_clusters_when_coalescing () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c =
        Cache.create ~writeback:wb s
          (demand_config ~scope:`Single_block ~coalesce:true 4)
      in
      Cache.write c (k 7 0) (Data.sim 16);
      Cache.write c (k 7 1) (Data.sim 16);
      Cache.write c (k 7 2) (Data.sim 16);
      Cache.write c (k 9 0) (Data.sim 16);
      ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
      Sched.sleep s 0.01;
      let batch =
        match List.rev sink.flushed with
        | first :: _ -> List.map (fun (ino, idx, _) -> (ino, idx)) first
        | [] -> Alcotest.fail "nothing flushed"
      in
      Alcotest.(check (list (pair int int)))
        "the oldest block and its file-contiguous neighbours, one batch"
        [ (7, 0); (7, 1); (7, 2) ]
        batch)

(* The extent cap bounds a clustered batch. *)
let test_cluster_respects_max_extent () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c =
        Cache.create ~writeback:wb s
          (demand_config ~scope:`Single_block ~coalesce:true ~max_extent:2 4)
      in
      Cache.write c (k 7 0) (Data.sim 16);
      Cache.write c (k 7 1) (Data.sim 16);
      Cache.write c (k 7 2) (Data.sim 16);
      Cache.write c (k 9 0) (Data.sim 16);
      ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
      Sched.sleep s 0.01;
      let first_batch =
        match List.rev sink.flushed with
        | first :: _ -> List.map (fun (ino, idx, _) -> (ino, idx)) first
        | [] -> Alcotest.fail "nothing flushed"
      in
      Alcotest.(check int) "extent capped at 2" 2 (List.length first_batch))

let test_overwrite_absorption () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      for _ = 1 to 10 do
        Cache.write c (k 1 0) (Data.sim 16)
      done;
      Cache.sync c;
      (* ten writes, one disk write: nine absorbed in memory *)
      Alcotest.(check int) "single disk write" 1 sink.blocks_written)

let test_delete_absorbs_writes () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      Cache.write c (k 1 0) (Data.sim 16);
      Cache.write c (k 1 1) (Data.sim 16);
      Cache.remove_file c 1;
      Cache.sync c;
      Alcotest.(check int) "nothing hit the disk" 0 sink.blocks_written;
      Alcotest.(check int) "cache empty" 0 (Cache.block_count c))

let test_truncate_drops_tail () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      for i = 0 to 3 do
        Cache.write c (k 1 i) (Data.sim 16)
      done;
      Cache.truncate c 1 ~from:2;
      Alcotest.(check bool) "b1 kept" true (Cache.contains c (k 1 1));
      Alcotest.(check bool) "b2 dropped" false (Cache.contains c (k 1 2));
      Alcotest.(check bool) "b3 dropped" false (Cache.contains c (k 1 3));
      Alcotest.(check int) "two dirty remain" 2 (Cache.dirty_count c))

let test_periodic_update_flushes_old_dirty () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let cfg =
        {
          (demand_config 16) with
          Cache.trigger =
            Cache.Periodic { max_age = 30.; scan_interval = 5. };
        }
      in
      let c = Cache.create ~writeback:wb s cfg in
      Cache.write c (k 1 0) (Data.sim 16);
      Sched.sleep s 20.;
      Alcotest.(check int) "still buffered at 20s" 0 sink.blocks_written;
      Sched.sleep s 20.;
      Alcotest.(check int) "flushed after 30s + scan" 1 sink.blocks_written;
      Alcotest.(check int) "now clean" 0 (Cache.dirty_count c))

let test_ups_keeps_dirty_indefinitely () =
  run_fs (fun s ->
      let sink, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 16) in
      Cache.write c (k 1 0) (Data.sim 16);
      Sched.sleep s 3600.;
      (* demand-only: an hour passes, nothing is written *)
      Alcotest.(check int) "no writes in an hour" 0 sink.blocks_written;
      Alcotest.(check int) "still dirty" 1 (Cache.dirty_count c))

let test_nvram_capacity_stalls_writer () =
  run_fs (fun s ->
      let _, wb = make_sink ~delay:0.010 s in
      let c =
        Cache.create ~writeback:wb s
          (demand_config ~nvram:2 ~scope:`Single_block 8)
      in
      let t0 = Sched.now s in
      Cache.write c (k 1 0) (Data.sim 16);
      Cache.write c (k 1 1) (Data.sim 16);
      Alcotest.(check (float 1e-9)) "first two writes instant" 0.
        (Sched.now s -. t0);
      (* third write: NVRAM full -> drain the oldest (10ms writeback) *)
      Cache.write c (k 1 2) (Data.sim 16);
      let elapsed = Sched.now s -. t0 in
      if elapsed < 0.009 then
        Alcotest.failf "writer should stall for the drain, took %.4f" elapsed;
      Alcotest.(check int) "nvram bounded" 2 (Cache.nvram_used c))

let test_nvram_whole_file_leaves_more_room () =
  (* Whole-file flush drains every dirty block of the oldest file, so a
     burst of writes to another file stalls less often. *)
  let stalls scope =
    let s = vsched () in
    let total = ref 0. in
    ignore
      (Sched.spawn s (fun () ->
           let _, wb = make_sink ~delay:0.010 s in
           let c = Cache.create ~writeback:wb s
               (demand_config ~nvram:4 ~scope 16) in
           for i = 0 to 3 do
             Cache.write c (k 1 i) (Data.sim 16)
           done;
           let t0 = Sched.now s in
           for i = 0 to 7 do
             Cache.write c (k 2 i) (Data.sim 16)
           done;
           total := Sched.now s -. t0));
    Sched.run s;
    !total
  in
  let whole = stalls `Whole_file and partial = stalls `Single_block in
  if whole >= partial then
    Alcotest.failf "whole-file %.4f should beat partial %.4f" whole partial

let test_concurrent_writes_same_clean_block_nvram () =
  (* Regression: two clients writing the same clean block while the
     NVRAM pool is full used to double-account the frame and corrupt
     the dirty list (deadlocking the whole server). *)
  run_fs (fun s ->
      let _, wb = make_sink ~delay:0.010 s in
      let c =
        Cache.create ~writeback:wb s
          (demand_config ~nvram:2 ~scope:`Single_block 8)
      in
      (* a clean shared block *)
      ignore (Cache.read c (k 7 0) ~fill:(fill_const 16));
      (* fill the NVRAM so clean->dirty transitions stall *)
      Cache.write c (k 1 0) (Data.sim 16);
      Cache.write c (k 1 1) (Data.sim 16);
      let writers_done = ref 0 in
      for _ = 1 to 2 do
        ignore
          (Sched.spawn s (fun () ->
               Cache.write c (k 7 0) (Data.sim 16);
               incr writers_done))
      done;
      Sched.sleep s 1.0;
      Alcotest.(check int) "both writers completed" 2 !writers_done;
      Cache.sync c;
      Alcotest.(check int) "cache drains clean" 0 (Cache.dirty_count c);
      Alcotest.(check int) "nvram accounting intact" 0 (Cache.nvram_used c))

let test_sync_leaves_cache_clean () =
  run_fs (fun s ->
      let sink, wb = make_sink ~delay:0.001 s in
      let c = Cache.create ~writeback:wb s (demand_config 32) in
      for i = 0 to 9 do
        Cache.write c (k i 0) (Data.sim 16)
      done;
      Cache.sync c;
      Alcotest.(check int) "all written" 10 sink.blocks_written;
      Alcotest.(check int) "clean" 0 (Cache.dirty_count c);
      (* blocks survive as clean cached copies *)
      Alcotest.(check int) "still cached" 10 (Cache.block_count c))

let test_flush_file_only_that_file () =
  run_fs (fun s ->
      let sink, wb = make_sink ~delay:0.001 s in
      let c = Cache.create ~writeback:wb s (demand_config 32) in
      Cache.write c (k 1 0) (Data.sim 16);
      Cache.write c (k 2 0) (Data.sim 16);
      Cache.flush_file c 1;
      Alcotest.(check int) "one block written" 1 sink.blocks_written;
      Alcotest.(check int) "file 2 still dirty" 1 (Cache.dirty_count c))

let test_write_during_flush_keeps_block_dirty () =
  run_fs (fun s ->
      let sink, wb = make_sink ~delay:0.010 s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      Cache.write c (k 1 0) (Data.of_string "v1");
      (* start a flush, then overwrite while the snapshot is in flight:
         the overwrite must not be lost *)
      ignore (Sched.spawn s (fun () -> Cache.flush_file c 1));
      Sched.sleep s 0.001;
      Cache.write c (k 1 0) (Data.of_string "v2");
      Sched.sleep s 0.1;
      (* fsync re-flushes until stable: two writes, v2 written last *)
      Alcotest.(check int) "two writes reached disk" 2 sink.blocks_written;
      Alcotest.(check int) "stable" 0 (Cache.dirty_count c);
      (match sink.flushed with
      | last :: _ ->
        let _, _, d = List.hd last in
        Alcotest.(check string) "newest contents persisted" "v2"
          (Data.to_string d)
      | [] -> Alcotest.fail "nothing flushed");
      match Cache.peek c (k 1 0) with
      | Some d ->
        Alcotest.(check string) "cache keeps v2" "v2" (Data.to_string d)
      | None -> Alcotest.fail "block must still be cached")

let test_concurrent_misses_share_fill () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let c = Cache.create ~writeback:wb s (demand_config 8) in
      let fills = ref 0 in
      let fill _key =
        incr fills;
        Sched.sleep s 0.005;
        Data.sim 16
      in
      let done_count = ref 0 in
      for _ = 1 to 5 do
        ignore
          (Sched.spawn s (fun () ->
               ignore (Cache.read c (k 1 0) ~fill);
               incr done_count))
      done;
      Sched.sleep s 0.1;
      Alcotest.(check int) "five readers" 5 !done_count;
      Alcotest.(check int) "one fill" 1 !fills)

let test_sync_flush_delays_allocator () =
  (* §5.2: with synchronous flushing the allocating thread waits for the
     writeback; the async flusher hides it. *)
  let alloc_time async =
    let s = vsched () in
    let elapsed = ref 0. in
    ignore
      (Sched.spawn s (fun () ->
           let _, wb = make_sink ~delay:0.050 s in
           let c = Cache.create ~writeback:wb s (demand_config ~async 2) in
           Cache.write c (k 1 0) (Data.sim 16);
           Cache.write c (k 1 1) (Data.sim 16);
           let t0 = Sched.now s in
           (* miss forces eviction of a dirty block *)
           ignore (Cache.read c (k 2 0) ~fill:(fill_const 16));
           elapsed := Sched.now s -. t0));
    Sched.run s;
    !elapsed
  in
  let sync_cost = alloc_time false in
  if sync_cost < 0.050 then
    Alcotest.failf "sync flush should delay the allocator (%.4f)" sync_cost

let test_mem_copy_rate_charges_time () =
  run_fs (fun s ->
      let _, wb = make_sink s in
      let cfg = { (demand_config 8) with Cache.mem_copy_rate = 1.0e6 } in
      let c = Cache.create ~writeback:wb s cfg in
      let t0 = Sched.now s in
      Cache.write c (k 1 0) (Data.sim 4096);
      let dt = Sched.now s -. t0 in
      (* 4096 bytes at 1 MB/s = ~4.1 ms *)
      Alcotest.(check (float 1e-6)) "copy cost" 0.004096 dt)

let test_stats_recorded () =
  run_fs (fun s ->
      let reg = Capfs_stats.Registry.create () in
      let _, wb = make_sink s in
      let c = Cache.create ~registry:reg ~writeback:wb s (demand_config 4) in
      ignore (Cache.read c (k 1 0) ~fill:(fill_const 16));
      ignore (Cache.read c (k 1 0) ~fill:(fill_const 16));
      Cache.write c (k 1 1) (Data.sim 16);
      Cache.write c (k 1 1) (Data.sim 16);
      Cache.remove_file c 1;
      let count name =
        match Capfs_stats.Registry.find reg ("cache." ^ name) with
        | Some st -> Capfs_stats.Stat.count st
        | None -> Alcotest.failf "stat %s missing" name
      in
      Alcotest.(check int) "hits" 1 (count "hits");
      Alcotest.(check int) "misses" 1 (count "misses");
      Alcotest.(check int) "overwrites" 1 (count "overwrites");
      Alcotest.(check int) "absorbed" 1 (count "absorbed_writes"))

(* Replacement policies *)

let mk_block ino idx =
  Block.make ~key:(k ino idx) ~data:(Data.sim 16) ~now:0.

let test_replacement_lru_basic () =
  let p = Replacement.lru () in
  let b1 = mk_block 1 1 and b2 = mk_block 1 2 and b3 = mk_block 1 3 in
  List.iter (Replacement.insert p) [ b1; b2; b3 ];
  Replacement.access p b1;
  (match Replacement.victim p with
  | Some v -> Alcotest.(check key_t) "b2 is victim" (k 1 2) v.Block.key
  | None -> Alcotest.fail "victim expected");
  Alcotest.(check int) "two left" 2 (Replacement.count p)

let test_replacement_skips_pinned () =
  let p = Replacement.lru () in
  let b1 = mk_block 1 1 and b2 = mk_block 1 2 in
  Replacement.insert p b1;
  Replacement.insert p b2;
  Block.pin b1;
  (match Replacement.victim p with
  | Some v -> Alcotest.(check key_t) "pinned skipped" (k 1 2) v.Block.key
  | None -> Alcotest.fail "victim expected");
  (match Replacement.victim p with
  | Some _ -> Alcotest.fail "only pinned block left"
  | None -> ());
  Block.unpin b1

let test_replacement_lfu_prefers_cold () =
  let p = Replacement.lfu () in
  let hot = mk_block 1 1 and cold = mk_block 1 2 in
  hot.Block.access_count <- 10;
  cold.Block.access_count <- 1;
  Replacement.insert p hot;
  Replacement.insert p cold;
  match Replacement.victim p with
  | Some v -> Alcotest.(check key_t) "cold victim" (k 1 2) v.Block.key
  | None -> Alcotest.fail "victim expected"

let test_replacement_random_deterministic () =
  let run seed =
    let p = Replacement.random ~seed in
    let blocks = List.init 10 (fun i -> mk_block 1 i) in
    List.iter (Replacement.insert p) blocks;
    let rec drain acc =
      match Replacement.victim p with
      | Some v -> drain (v.Block.key :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  Alcotest.(check (list key_t)) "same seed same order" (run 3) (run 3)

let test_replacement_slru_promotes () =
  let p = Replacement.slru ~protected_capacity:2 in
  let b1 = mk_block 1 1 and b2 = mk_block 1 2 and b3 = mk_block 1 3 in
  List.iter (Replacement.insert p) [ b1; b2; b3 ];
  (* b1 promoted to protected; victims come from probation first *)
  Replacement.access p b1;
  (match Replacement.victim p with
  | Some v ->
    if Block.Key.equal v.Block.key (k 1 1) then
      Alcotest.fail "protected block evicted before probation"
  | None -> Alcotest.fail "victim expected");
  Alcotest.(check int) "two left" 2 (Replacement.count p)

let test_replacement_lru_k_prefers_single_access () =
  let p = Replacement.lru_k ~k:2 in
  let once = mk_block 1 1 and twice = mk_block 1 2 in
  once.Block.times.Block.last_access <- 1.;
  Replacement.insert p once;
  twice.Block.times.Block.last_access <- 2.;
  Replacement.insert p twice;
  twice.Block.times.Block.last_access <- 3.;
  Replacement.access p twice;
  (* [once] has no 2nd reference: preferred victim *)
  match Replacement.victim p with
  | Some v -> Alcotest.(check key_t) "once-accessed evicted" (k 1 1) v.Block.key
  | None -> Alcotest.fail "victim expected"

(* The ring-buffer history must pick exactly the victims the original
   list-based LRU-K picked: replay a randomized workload against a
   reference model with the same swap-remove pool order and a naive
   k-history list, and compare every eviction. *)
let test_replacement_lru_k_ring_matches_reference () =
  let k_hist = 2 in
  let p = Replacement.lru_k ~k:k_hist in
  (* reference: insertion array with swap-remove + list history *)
  let ref_pool = ref [||] and ref_len = ref 0 in
  let ref_hist : (Block.Key.t, float list) Hashtbl.t = Hashtbl.create 64 in
  let ref_insert b =
    let arr = !ref_pool in
    let arr =
      if !ref_len = Array.length arr then begin
        let grown = Array.make (Stdlib.max 16 (2 * !ref_len)) b in
        Array.blit arr 0 grown 0 !ref_len;
        grown
      end
      else arr
    in
    arr.(!ref_len) <- b;
    incr ref_len;
    ref_pool := arr
  in
  let ref_note (b : Block.t) =
    let past =
      match Hashtbl.find_opt ref_hist b.Block.key with Some h -> h | None -> []
    in
    let h =
      b.Block.times.Block.last_access
      :: (if List.length past >= k_hist then
            List.filteri (fun i _ -> i < k_hist - 1) past
          else past)
    in
    Hashtbl.replace ref_hist b.Block.key h
  in
  let ref_kth_age (b : Block.t) =
    match Hashtbl.find_opt ref_hist b.Block.key with
    | Some h when List.length h >= k_hist -> List.nth h (k_hist - 1)
    | Some _ | None -> neg_infinity
  in
  let ref_victim () =
    let best = ref None in
    for i = 0 to !ref_len - 1 do
      let b = !ref_pool.(i) in
      match !best with
      | Some (bb, _) when ref_kth_age bb <= ref_kth_age b -> ()
      | Some _ | None -> best := Some (b, i)
    done;
    match !best with
    | Some (b, i) ->
      !ref_pool.(i) <- !ref_pool.(!ref_len - 1);
      decr ref_len;
      Hashtbl.remove ref_hist b.Block.key;
      Some b
    | None -> None
  in
  let prng = ref 42 in
  let rand n =
    prng := (!prng * 1103515245) + 12345;
    abs !prng mod n
  in
  let live : Block.t list ref = ref [] in
  let clock = ref 0. in
  for step = 0 to 499 do
    clock := !clock +. 1.;
    match rand 3 with
    | 0 ->
      let b = mk_block 1 step in
      b.Block.times.Block.last_access <- !clock;
      Replacement.insert p b;
      ref_insert b;
      ref_note b;
      live := b :: !live
    | 1 when !live <> [] ->
      let b = List.nth !live (rand (List.length !live)) in
      b.Block.times.Block.last_access <- !clock;
      Replacement.access p b;
      ref_note b
    | _ when !live <> [] -> (
      let v = Replacement.victim p in
      let rv = ref_victim () in
      match (v, rv) with
      | Some v, Some rv ->
        Alcotest.(check key_t)
          (Printf.sprintf "victim parity at step %d" step)
          rv.Block.key v.Block.key;
        live := List.filter (fun b -> not (b == v)) !live
      | None, None -> ()
      | _ -> Alcotest.fail "one model had a victim, the other did not")
    | _ -> ()
  done

let test_replacement_by_name () =
  List.iter
    (fun n -> ignore (Replacement.by_name n))
    Replacement.known_policies;
  try
    ignore (Replacement.by_name "clock-pro");
    Alcotest.fail "unknown policy must raise"
  with Invalid_argument _ -> ()

(* Packed key representation: pack/unpack round-trips across the whole
   legal range, and the smart constructor rejects out-of-range input. *)

let test_key_roundtrip_boundaries () =
  let cases =
    [
      (0, 0);
      (0, Block.Key.max_index);
      (Block.Key.max_ino, 0);
      (Block.Key.max_ino, Block.Key.max_index);
      (1, 1);
      (12345, 678);
    ]
  in
  List.iter
    (fun (ino, idx) ->
      let key = k ino idx in
      Alcotest.(check int) "ino round-trips" ino (Block.Key.ino key);
      Alcotest.(check int) "index round-trips" idx (Block.Key.index key))
    cases

let test_key_rejects_out_of_range () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s must raise Invalid_argument" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "negative ino" (fun () -> k (-1) 0);
  expect_invalid "negative index" (fun () -> k 0 (-1));
  expect_invalid "ino overflow" (fun () -> k (Block.Key.max_ino + 1) 0);
  expect_invalid "index overflow" (fun () -> k 0 (Block.Key.max_index + 1))

let prop_key_roundtrip =
  QCheck.Test.make ~name:"key pack/unpack round-trips" ~count:500
    QCheck.(
      pair (int_range 0 Block.Key.max_ino) (int_range 0 Block.Key.max_index))
    (fun (ino, idx) ->
      let key = k ino idx in
      Block.Key.ino key = ino && Block.Key.index key = idx)

let prop_key_injective =
  QCheck.Test.make ~name:"distinct (ino,index) pack to distinct keys"
    ~count:500
    QCheck.(
      pair
        (pair (int_range 0 1_000_000) (int_range 0 Block.Key.max_index))
        (pair (int_range 0 1_000_000) (int_range 0 Block.Key.max_index)))
    (fun ((a_ino, a_idx), (b_ino, b_idx)) ->
      let ka = k a_ino a_idx and kb = k b_ino b_idx in
      Block.Key.equal ka kb = (a_ino = b_ino && a_idx = b_idx))

(* Property: the cache never exceeds its configured frames, and every
   operation sequence leaves hit+miss accounting consistent. *)
let prop_cache_capacity_respected =
  QCheck.Test.make ~name:"cache never exceeds volatile+nvram capacity"
    ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 120)
        (pair (int_range 0 5) (pair (int_range 0 9) bool)))
    (fun ops ->
      let s = vsched () in
      let ok = ref true in
      ignore
        (Sched.spawn s (fun () ->
             let _, wb = make_sink s in
             let c = Cache.create ~writeback:wb s (demand_config ~nvram:2 4) in
             List.iter
               (fun (ino, (idx, is_write)) ->
                 if is_write then Cache.write c (k ino idx) (Data.sim 16)
                 else ignore (Cache.read c (k ino idx) ~fill:(fill_const 16));
                 if Cache.block_count c > 4 + 2 then ok := false)
               ops));
      Sched.run s;
      !ok)

let prop_sync_always_cleans =
  QCheck.Test.make ~name:"sync leaves no dirty blocks" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (pair (int_range 0 3) (int_range 0 6)))
    (fun writes ->
      let s = vsched () in
      let clean = ref false in
      ignore
        (Sched.spawn s (fun () ->
             let _, wb = make_sink s in
             let c = Cache.create ~writeback:wb s (demand_config 16) in
             List.iter
               (fun (ino, idx) -> Cache.write c (k ino idx) (Data.sim 16))
               writes;
             Cache.sync c;
             clean := Cache.dirty_count c = 0));
      Sched.run s;
      !clean)

(* The replacement chain against a plain-list model: LRU, and SLRU's
   two segments, driven by random insert/access/forget/pin/unpin/victim
   sequences over a handful of clean blocks. Each list is front = most
   recent; a victim scan looks at the back, moving pinned blocks to the
   front, at most once per tracked block. *)
type repl_op =
  | R_insert of int
  | R_access of int
  | R_forget of int
  | R_pin of int
  | R_unpin of int
  | R_victim

let repl_blocks = 8

let gen_repl_op =
  QCheck.Gen.(
    let blk = int_bound (repl_blocks - 1) in
    frequency
      [
        (4, map (fun i -> R_insert i) blk);
        (4, map (fun i -> R_access i) blk);
        (2, map (fun i -> R_forget i) blk);
        (1, map (fun i -> R_pin i) blk);
        (2, map (fun i -> R_unpin i) blk);
        (3, return R_victim);
      ])

let model_victim ~pinned seg =
  let rec go attempts =
    match List.rev !seg with
    | [] -> None
    | _ when attempts = 0 -> None
    | back :: _ ->
      let rest = List.filter (fun j -> j <> back) !seg in
      if pinned back then begin
        seg := back :: rest;
        go (attempts - 1)
      end
      else begin
        seg := rest;
        Some back
      end
  in
  go (List.length !seg)

let prop_replacement_matches_model =
  QCheck.Test.make ~name:"lru and slru match a list model" ~count:300
    QCheck.(
      make
        Gen.(pair (int_bound 4) (list_size (int_bound 200) gen_repl_op)))
    (fun (cap, ops) ->
      (* cap = 0: plain LRU; otherwise SLRU with that protected capacity *)
      let p =
        if cap = 0 then Replacement.lru ()
        else Replacement.slru ~protected_capacity:cap
      in
      let blocks = Array.init repl_blocks (fun i -> mk_block 1 i) in
      let pinned i = blocks.(i).Block.pinned > 0 in
      let prob = ref [] and prot = ref [] in
      let mem i l = List.mem i !l in
      let drop i l = l := List.filter (fun j -> j <> i) !l in
      let step = function
        | R_insert i ->
          Replacement.insert p blocks.(i);
          if not (mem i prob || mem i prot) then prob := i :: !prob;
          true
        | R_access i ->
          Replacement.access p blocks.(i);
          (if cap = 0 then begin
             if mem i prob then begin
               drop i prob;
               prob := i :: !prob
             end
           end
           else if mem i prob then begin
             drop i prob;
             prot := i :: !prot;
             if List.length !prot > cap then
               match model_victim ~pinned prot with
               | Some d -> prob := d :: !prob
               | None -> ()
           end
           else if mem i prot then begin
             drop i prot;
             prot := i :: !prot
           end);
          true
        | R_forget i ->
          Replacement.forget p blocks.(i);
          drop i prob;
          drop i prot;
          true
        | R_pin i ->
          Block.pin blocks.(i);
          true
        | R_unpin i ->
          if pinned i then Block.unpin blocks.(i);
          true
        | R_victim ->
          let got =
            Option.map (fun b -> Block.index b) (Replacement.victim p)
          in
          let expect =
            match model_victim ~pinned prob with
            | Some v -> Some v
            | None -> model_victim ~pinned prot
          in
          got = expect
      in
      List.for_all
        (fun op ->
          step op
          && Replacement.count p = List.length !prob + List.length !prot)
        ops)

(* The dirty list against a model: a cache big enough never to flush
   on demand, driven through writes, truncates, deletes, syncs and the
   passing of time. The list holds each dirty block exactly once and
   nothing else, oldest first (an overwrite keeps its place; a block
   dirtied again after a sync goes to the back), and each file's chain
   holds exactly the file's cached blocks. *)
type cache_op =
  | C_write of int * int
  | C_truncate of int * int
  | C_delete of int
  | C_sync
  | C_tick

let gen_cache_op =
  QCheck.Gen.(
    let ino = int_range 1 3 and idx = int_bound 5 in
    frequency
      [
        (8, map2 (fun i x -> C_write (i, x)) ino idx);
        (2, map2 (fun i x -> C_truncate (i, x)) ino idx);
        (1, map (fun i -> C_delete i) ino);
        (1, return C_sync);
        (3, return C_tick);
      ])

let prop_dirty_list_matches_model =
  QCheck.Test.make ~name:"dirty list stays oldest-first and exact" ~count:200
    QCheck.(make Gen.(list_size (int_bound 120) gen_cache_op))
    (fun ops ->
      let ok = ref true in
      run_fs (fun s ->
          let _, wb = make_sink ~delay:0.01 s in
          let c = Cache.create ~writeback:wb s (demand_config 64) in
          let dirty = ref [] and cached = ref [] in
          let keep p l = l := List.filter p !l in
          List.iter
            (fun op ->
              (match op with
              | C_write (i, x) ->
                Cache.write c (k i x) (Data.sim 16);
                if not (List.mem (i, x) !dirty) then dirty := !dirty @ [ (i, x) ];
                if not (List.mem (i, x) !cached) then cached := (i, x) :: !cached
              | C_truncate (i, from) ->
                Cache.truncate c i ~from;
                let live (j, x) = j <> i || x < from in
                keep live dirty;
                keep live cached
              | C_delete i ->
                Cache.remove_file c i;
                keep (fun (j, _) -> j <> i) dirty;
                keep (fun (j, _) -> j <> i) cached
              | C_sync ->
                Cache.sync c;
                dirty := []
              | C_tick -> Sched.sleep s 1.);
              let listed = Cache.dirty_blocks c in
              let rec oldest_first = function
                | a :: (b :: _ as rest) ->
                  a.Block.times.Block.dirtied_at
                  <= b.Block.times.Block.dirtied_at
                  && oldest_first rest
                | [] | [ _ ] -> true
              in
              let file_keys i =
                List.sort compare
                  (List.map
                     (fun key -> (Block.Key.ino key, Block.Key.index key))
                     (Cache.keys_of_file c i))
              in
              let model_keys i =
                List.sort compare (List.filter (fun (j, _) -> j = i) !cached)
              in
              if
                not
                  (List.map (fun b -> (Block.ino b, Block.index b)) listed
                   = !dirty
                  && List.for_all (fun b -> b.Block.state = Block.Dirty) listed
                  && oldest_first listed
                  && Cache.dirty_count c = List.length !dirty
                  && List.for_all (fun i -> file_keys i = model_keys i) [ 1; 2; 3 ])
              then ok := false)
            ops);
      !ok)

(* Out-of-order writes to several files, then whole-file flushes: each
   flush set must be exactly that file's dirty blocks, in index order.
   Indices are drawn at random, so the file chains (cache-entry order)
   are mostly out of index order and the flush set must be sorted; runs
   of ascending writes exercise the already-sorted path. Without
   coalescing the write-back hands the set over in order, 8 blocks a
   batch; with it, every extent is an ascending run and together they
   cover the set. *)
type flush_op =
  | F_write of int * int
  | F_run of int * int
  | F_truncate of int * int
  | F_flush of int
  | F_sync

let prop_whole_file_flush_sets_sorted =
  let gen_op =
    QCheck.Gen.(
      let ino = int_range 1 4 and idx = int_bound 40 in
      frequency
        [
          (10, map2 (fun i x -> F_write (i, x)) ino idx);
          (2, map2 (fun i x -> F_run (i, x)) ino idx);
          (1, map2 (fun i x -> F_truncate (i, x)) ino idx);
          (3, map (fun i -> F_flush i) ino);
          (1, return F_sync);
        ])
  in
  let print = function
    | F_write (i, x) -> Printf.sprintf "write %d:%d" i x
    | F_run (i, x) -> Printf.sprintf "run %d:%d+" i x
    | F_truncate (i, x) -> Printf.sprintf "truncate %d %d" i x
    | F_flush i -> Printf.sprintf "flush %d" i
    | F_sync -> "sync"
  in
  QCheck.Test.make ~name:"whole-file flush sets are dirty blocks in index order"
    ~count:200
    (QCheck.make
       ~print:(fun (c, ops) ->
         Printf.sprintf "coalesce %b: %s" c (String.concat "; " (List.map print ops)))
       QCheck.Gen.(pair bool (list_size (int_bound 150) gen_op)))
    (fun (coalesce, ops) ->
      let ok = ref true in
      run_fs (fun s ->
          let sink, wb = make_sink s in
          let c =
            Cache.create ~writeback:wb s
              (demand_config ~async:false ~coalesce ~max_extent:8 512)
          in
          let dirty = Hashtbl.create 16 in
          let dirty_of i =
            List.sort_uniq compare
              (Hashtbl.fold (fun (j, x) () acc -> if j = i then x :: acc else acc) dirty [])
          in
          let write i x =
            Cache.write c (k i x) (Data.sim 16);
            Hashtbl.replace dirty (i, x) ()
          in
          let keys batch = List.map (fun (j, x, _) -> (j, x)) batch in
          (* what a coalesced write-back must send for [sorted] keys:
             maximal runs of one file's consecutive blocks, at most 8 *)
          let extents sorted =
            let close run acc = if run = [] then acc else List.rev run :: acc in
            let rec go acc run = function
              | [] -> List.rev (close run acc)
              | (i, x) :: rest -> (
                match run with
                | (j, y) :: _ when j = i && x = y + 1 && List.length run < 8 ->
                  go acc ((i, x) :: run) rest
                | _ -> go (close run acc) [ (i, x) ] rest)
            in
            go [] [] sorted
          in
          let sent_right ~in_order expected =
            let batches = List.rev sink.flushed in
            if coalesce then
              List.sort compare (List.map keys batches)
              = List.sort compare (extents expected)
            else if in_order then List.concat_map keys batches = expected
            else List.sort compare (List.concat_map keys batches) = expected
          in
          List.iter
            (function
              | F_write (i, x) -> write i x
              | F_run (i, x) -> for y = x to Stdlib.min 40 (x + 9) do write i y done
              | F_truncate (i, from) ->
                Cache.truncate c i ~from;
                Hashtbl.filter_map_inplace
                  (fun (j, x) () -> if j = i && x >= from then None else Some ())
                  dirty
              | F_flush i ->
                sink.flushed <- [];
                Cache.flush_file c i;
                if not (sent_right ~in_order:true (List.map (fun x -> (i, x)) (dirty_of i)))
                then ok := false;
                Hashtbl.filter_map_inplace
                  (fun (j, _) () -> if j = i then None else Some ())
                  dirty
              | F_sync ->
                (* the dirty list is in dirtying order; a coalesced
                   write-back must still sort it into maximal extents *)
                sink.flushed <- [];
                Cache.sync c;
                let all = Hashtbl.fold (fun key () acc -> key :: acc) dirty [] in
                if not (sent_right ~in_order:false (List.sort compare all)) then
                  ok := false;
                Hashtbl.reset dirty)
            ops);
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_key_roundtrip;
      prop_key_injective;
      prop_replacement_matches_model;
      prop_dirty_list_matches_model;
      prop_cache_capacity_respected;
      prop_sync_always_cleans;
      prop_whole_file_flush_sets_sorted;
    ]

let suite =
  [
    Alcotest.test_case "read miss then hit" `Quick test_read_miss_then_hit;
    Alcotest.test_case "write then read back" `Quick test_write_then_read_back;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "dirty never silently dropped" `Quick
      test_dirty_blocks_never_evicted_silently;
    Alcotest.test_case "demand flush whole file" `Quick
      test_demand_flush_whole_file;
    Alcotest.test_case "demand flush single block" `Quick
      test_demand_flush_single_block;
    Alcotest.test_case "overwrite absorption" `Quick test_overwrite_absorption;
    Alcotest.test_case "delete absorbs writes" `Quick test_delete_absorbs_writes;
    Alcotest.test_case "truncate drops tail" `Quick test_truncate_drops_tail;
    Alcotest.test_case "periodic update flushes old dirty" `Quick
      test_periodic_update_flushes_old_dirty;
    Alcotest.test_case "ups keeps dirty indefinitely" `Quick
      test_ups_keeps_dirty_indefinitely;
    Alcotest.test_case "nvram capacity stalls writer" `Quick
      test_nvram_capacity_stalls_writer;
    Alcotest.test_case "nvram whole-file beats partial" `Quick
      test_nvram_whole_file_leaves_more_room;
    Alcotest.test_case "concurrent writes same clean block (nvram)" `Quick
      test_concurrent_writes_same_clean_block_nvram;
    Alcotest.test_case "sync leaves cache clean" `Quick
      test_sync_leaves_cache_clean;
    Alcotest.test_case "flush_file scoped" `Quick test_flush_file_only_that_file;
    Alcotest.test_case "write during flush re-dirties" `Quick
      test_write_during_flush_keeps_block_dirty;
    Alcotest.test_case "concurrent misses share fill" `Quick
      test_concurrent_misses_share_fill;
    Alcotest.test_case "sync flush delays allocator" `Quick
      test_sync_flush_delays_allocator;
    Alcotest.test_case "mem copy rate charges time" `Quick
      test_mem_copy_rate_charges_time;
    Alcotest.test_case "stats recorded" `Quick test_stats_recorded;
    Alcotest.test_case "key round-trips at boundaries" `Quick
      test_key_roundtrip_boundaries;
    Alcotest.test_case "key rejects out-of-range" `Quick
      test_key_rejects_out_of_range;
    Alcotest.test_case "replacement lru basic" `Quick test_replacement_lru_basic;
    Alcotest.test_case "replacement skips pinned" `Quick
      test_replacement_skips_pinned;
    Alcotest.test_case "replacement lfu" `Quick test_replacement_lfu_prefers_cold;
    Alcotest.test_case "replacement random deterministic" `Quick
      test_replacement_random_deterministic;
    Alcotest.test_case "replacement slru promotes" `Quick
      test_replacement_slru_promotes;
    Alcotest.test_case "replacement lru-k" `Quick
      test_replacement_lru_k_prefers_single_access;
    Alcotest.test_case "replacement lru-k ring matches reference" `Quick
      test_replacement_lru_k_ring_matches_reference;
    Alcotest.test_case "single-block flush clusters when coalescing" `Quick
      test_demand_flush_single_block_clusters_when_coalescing;
    Alcotest.test_case "cluster respects max extent" `Quick
      test_cluster_respects_max_extent;
    Alcotest.test_case "replacement by name" `Quick test_replacement_by_name;
  ]
  @ qsuite
