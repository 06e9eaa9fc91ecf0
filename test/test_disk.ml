(* Tests for the disk substrate: geometry, seek curves, the simulated
   HP97560 mechanics, the SCSI-2 bus, queue-scheduling policies and the
   driver. *)

open Capfs_disk
module Sched = Capfs_sched.Sched

let vsched () = Sched.create ~clock:`Virtual ()

let run_sim f =
  let s = vsched () in
  let result = ref None in
  ignore (Sched.spawn s (fun () -> result := Some (f s)));
  Sched.run s;
  match !result with Some v -> v | None -> Alcotest.fail "fibre never ran"

(* Data *)

let test_data_real_roundtrip () =
  let d = Data.of_string "hello world" in
  Alcotest.(check int) "length" 11 (Data.length d);
  Alcotest.(check string) "contents" "hello world" (Data.to_string d);
  let s = Data.sub d ~pos:6 ~len:5 in
  Alcotest.(check string) "sub" "world" (Data.to_string s);
  Alcotest.(check bool) "a full-range sub is the payload itself" true
    (Data.sub d ~pos:0 ~len:11 == d)

let test_data_sim_behaves () =
  let d = Data.sim 4096 in
  Alcotest.(check int) "length" 4096 (Data.length d);
  Alcotest.(check bool) "not real" false (Data.is_real d);
  let s = Data.sub d ~pos:100 ~len:50 in
  Alcotest.(check int) "sub length" 50 (Data.length s);
  Alcotest.(check bool) "sub stays sim" false (Data.is_real s)

let test_data_blit_mixed () =
  let dst = Data.real 8 in
  Data.blit ~src:(Data.of_string "abcd") ~src_pos:0 ~dst ~dst_pos:2 ~len:4;
  Alcotest.(check string) "real blit" "\000\000abcd\000\000" (Data.to_string dst);
  Data.blit ~src:(Data.sim 4) ~src_pos:0 ~dst ~dst_pos:2 ~len:4;
  Alcotest.(check string) "sim source zero-fills" "\000\000\000\000\000\000\000\000"
    (Data.to_string dst)

let test_data_bounds_checked () =
  let d = Data.sim 10 in
  (try
     ignore (Data.sub d ~pos:8 ~len:5);
     Alcotest.fail "sub out of range must raise"
   with Invalid_argument _ -> ())

(* Geometry *)

let tiny_geom =
  Geometry.v ~cylinders:4 ~heads:2 ~sectors_per_track:8 ~sector_bytes:512
    ~track_skew:2 ~cylinder_skew:3 ()

let test_geometry_capacity () =
  Alcotest.(check int) "sectors" 64 (Geometry.capacity_sectors tiny_geom);
  Alcotest.(check int) "bytes" (64 * 512) (Geometry.capacity_bytes tiny_geom)

let test_geometry_mapping_origin () =
  let p = Geometry.pos_of_lba tiny_geom 0 in
  Alcotest.(check int) "cyl" 0 p.Geometry.cylinder;
  Alcotest.(check int) "head" 0 p.Geometry.head;
  Alcotest.(check int) "angle" 0 p.Geometry.angle

let test_geometry_track_skew () =
  (* First sector of track 1 (cyl 0, head 1) is rotated by track_skew. *)
  let p = Geometry.pos_of_lba tiny_geom 8 in
  Alcotest.(check int) "head" 1 p.Geometry.head;
  Alcotest.(check int) "angle includes skew" 2 p.Geometry.angle

let prop_geometry_bijective =
  QCheck.Test.make ~name:"lba -> pos -> lba is the identity" ~count:500
    QCheck.(int_range 0 (Geometry.capacity_sectors tiny_geom - 1))
    (fun lba ->
      Geometry.lba_of_pos tiny_geom (Geometry.pos_of_lba tiny_geom lba) = lba)

let prop_geometry_hp97560_bijective =
  let g = Disk_model.hp97560.Disk_model.geometry in
  QCheck.Test.make ~name:"hp97560 mapping bijective" ~count:500
    QCheck.(int_range 0 (Geometry.capacity_sectors g - 1))
    (fun lba -> Geometry.lba_of_pos g (Geometry.pos_of_lba g lba) = lba)

let test_geometry_out_of_range () =
  (try
     ignore (Geometry.pos_of_lba tiny_geom 64);
     Alcotest.fail "must raise"
   with Invalid_argument _ -> ())

(* Seek *)

let test_seek_zero_distance_free () =
  Alcotest.(check (float 0.)) "hp97560" 0. (Seek.time Seek.hp97560 ~distance:0);
  Alcotest.(check (float 0.)) "constant" 0.
    (Seek.time (Seek.constant 0.01) ~distance:0)

let test_seek_hp97560_curve () =
  (* Below the knee: 3.24 + 0.400 sqrt(d) ms. *)
  let t100 = Seek.time Seek.hp97560 ~distance:100 in
  Alcotest.(check (float 1e-9)) "short seek" ((3.24 +. (0.400 *. 10.)) /. 1000.)
    t100;
  (* Above the knee: 8.00 + 0.008 d ms. *)
  let t1000 = Seek.time Seek.hp97560 ~distance:1000 in
  Alcotest.(check (float 1e-9)) "long seek" ((8.00 +. (0.008 *. 1000.)) /. 1000.)
    t1000

let prop_seek_monotone =
  QCheck.Test.make ~name:"hp97560 seek time is monotone in distance"
    ~count:300
    QCheck.(pair (int_range 1 1960) (int_range 1 1960))
    (fun (d1, d2) ->
      let lo = Stdlib.min d1 d2 and hi = Stdlib.max d1 d2 in
      Seek.time Seek.hp97560 ~distance:lo
      <= Seek.time Seek.hp97560 ~distance:hi +. 1e-12)

let test_seek_linear_endpoints () =
  let m = Seek.linear ~single:0.001 ~max:0.02 ~cylinders:100 in
  Alcotest.(check (float 1e-12)) "single" 0.001 (Seek.time m ~distance:1);
  Alcotest.(check (float 1e-12)) "full stroke" 0.02 (Seek.time m ~distance:99)

(* Disk model *)

let test_hp97560_derived_quantities () =
  let m = Disk_model.hp97560 in
  let rot = Disk_model.rotation_time m in
  (* 4002 rpm -> 14.99 ms per revolution: the paper's 17 ms bump is
     rotation plus the 2 ms controller overhead. *)
  if rot < 0.0149 || rot > 0.0151 then Alcotest.failf "rotation %.6f" rot;
  let rate = Disk_model.media_rate m in
  if rate < 2.0e6 || rate > 3.0e6 then
    Alcotest.failf "media rate %.0f implausible for an HP97560" rate;
  Alcotest.(check int) "capacity ~1.3GB"
    (1962 * 19 * 72 * 512)
    (Geometry.capacity_bytes m.Disk_model.geometry)

(* Bus *)

let test_bus_transfer_time () =
  let elapsed =
    run_sim (fun s ->
        let bus = Bus.create ~name:"b" ~rate_bytes_per_sec:10.0e6
            ~arbitration:0. ~phase_overhead:0. s in
        let t0 = Sched.now s in
        Bus.transfer bus ~bytes:1_000_000;
        Sched.now s -. t0)
  in
  Alcotest.(check (float 1e-9)) "1MB at 10MB/s" 0.1 elapsed

let test_bus_contention_serializes () =
  let s = vsched () in
  let bus = Bus.create ~name:"b" ~rate_bytes_per_sec:1.0e6 ~arbitration:0.
      ~phase_overhead:0. s in
  let finished = ref [] in
  for i = 1 to 3 do
    ignore
      (Sched.spawn s (fun () ->
           Bus.transfer bus ~bytes:100_000;
           finished := (i, Sched.now s) :: !finished))
  done;
  Sched.run s;
  let times = List.map snd !finished |> List.sort compare in
  Alcotest.(check (list (float 1e-9))) "serialized at 0.1s each"
    [ 0.1; 0.2; 0.3 ] times;
  Alcotest.(check (float 1e-9)) "busy accounting" 0.3 (Bus.busy_seconds bus)

(* Iosched policies *)

let flat_geom =
  Geometry.v ~cylinders:100 ~heads:1 ~sectors_per_track:1 ~sector_bytes:512 ()

let req s cylinder =
  Iorequest.make s Iorequest.Read ~lba:cylinder ~sectors:1 ()

let drain_policy p ~start =
  let rec go cur acc =
    match Iosched.next p ~current_cyl:cur with
    | None -> List.rev acc
    | Some r ->
      let c = r.Iorequest.lba in
      go c (c :: acc)
  in
  go start []

let test_fcfs_order () =
  run_sim (fun s ->
      let p = Iosched.fcfs flat_geom in
      List.iter (fun c -> Iosched.add p (req s c)) [ 50; 10; 90 ];
      Alcotest.(check (list int)) "fcfs" [ 50; 10; 90 ]
        (drain_policy p ~start:0))

let test_sstf_order () =
  run_sim (fun s ->
      let p = Iosched.sstf flat_geom in
      List.iter (fun c -> Iosched.add p (req s c)) [ 50; 10; 90; 45 ];
      Alcotest.(check (list int)) "sstf from 40" [ 45; 50; 10; 90 ]
        (drain_policy p ~start:40))

let test_look_reverses () =
  run_sim (fun s ->
      let p = Iosched.look flat_geom in
      List.iter (fun c -> Iosched.add p (req s c)) [ 50; 10; 90; 45 ];
      (* travelling up from 40: 45, 50, 90, then reverse to 10 *)
      Alcotest.(check (list int)) "look" [ 45; 50; 90; 10 ]
        (drain_policy p ~start:40))

let test_clook_wraps () =
  run_sim (fun s ->
      let p = Iosched.clook flat_geom in
      List.iter (fun c -> Iosched.add p (req s c)) [ 50; 10; 90; 45 ];
      (* upward from 40: 45, 50, 90; wrap to lowest: 10 *)
      Alcotest.(check (list int)) "clook" [ 45; 50; 90; 10 ]
        (drain_policy p ~start:40);
      (* upward from 60 with all below: wrap immediately *)
      List.iter (fun c -> Iosched.add p (req s c)) [ 30; 20 ];
      Alcotest.(check (list int)) "clook wrap" [ 20; 30 ]
        (drain_policy p ~start:60))

let test_scan_edf_deadlines_first () =
  run_sim (fun s ->
      let p = Iosched.scan_edf flat_geom in
      let r1 = Iorequest.make s Iorequest.Read ~lba:80 ~sectors:1
          ~deadline:5. () in
      let r2 = Iorequest.make s Iorequest.Read ~lba:10 ~sectors:1
          ~deadline:1. () in
      let r3 = Iorequest.make s Iorequest.Read ~lba:20 ~sectors:1 () in
      List.iter (Iosched.add p) [ r1; r2; r3 ];
      Alcotest.(check (list int)) "edf order" [ 10; 80; 20 ]
        (drain_policy p ~start:0))

let test_policy_tie_break_fifo () =
  run_sim (fun s ->
      let p = Iosched.sstf flat_geom in
      let a = req s 30 and b = req s 30 in
      Iosched.add p a;
      Iosched.add p b;
      (match Iosched.next p ~current_cyl:30 with
      | Some r -> Alcotest.(check int) "first submitted first" a.Iorequest.id
                    r.Iorequest.id
      | None -> Alcotest.fail "expected a request"))

let test_by_name_roundtrip () =
  List.iter
    (fun n ->
      let p = Iosched.by_name flat_geom n in
      Alcotest.(check string) "name" n (Iosched.name p))
    Iosched.known_policies;
  try
    ignore (Iosched.by_name flat_geom "elevator-of-doom");
    Alcotest.fail "unknown policy must raise"
  with Invalid_argument _ -> ()

(* Sim_disk mechanics *)

let hp_setup ?(backing = false) s =
  let bus = Bus.scsi2 s in
  let disk = Sim_disk.create ~backing s Disk_model.hp97560 bus in
  disk

let test_disk_read_latency_band () =
  let latency =
    run_sim (fun s ->
        let disk = hp_setup s in
        let req = Iorequest.make s Iorequest.Read ~lba:123_456 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> false) req;
        Iorequest.response_time req)
  in
  (* controller 2ms + seek (<=23ms) + rotation (<15ms) + transfer: a
     single 4KB read must land in the paper's 2..40ms band. *)
  if latency < 0.002 || latency > 0.040 then
    Alcotest.failf "read latency %.4f outside [2ms, 40ms]" latency

let test_disk_cache_hit_is_fast () =
  let miss, hit =
    run_sim (fun s ->
        let disk = hp_setup s in
        let r1 = Iorequest.make s Iorequest.Read ~lba:5000 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r1;
        let t1 = Iorequest.response_time r1 in
        (* same sectors again: served from the disk cache *)
        let r2 = Iorequest.make s Iorequest.Read ~lba:5000 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r2;
        (t1, Iorequest.response_time r2))
  in
  if hit >= miss /. 2. then
    Alcotest.failf "cache hit %.5f not much faster than miss %.5f" hit miss;
  (* hit = controller + bus transfer only: ~2.5ms *)
  if hit > 0.004 then Alcotest.failf "cache hit %.5f too slow" hit

let test_disk_read_ahead_serves_next () =
  let second =
    run_sim (fun s ->
        let disk = hp_setup s in
        let r1 = Iorequest.make s Iorequest.Read ~lba:5000 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r1;
        (* the next 4KB (8 sectors) were prefetched *)
        let r2 = Iorequest.make s Iorequest.Read ~lba:5008 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r2;
        Iorequest.response_time r2)
  in
  if second > 0.004 then
    Alcotest.failf "prefetched read cost %.5f (expected cache hit)" second

let test_disk_immediate_report_write () =
  let reported, mechanical_done =
    run_sim (fun s ->
        let disk = hp_setup s in
        let data = Data.sim 4096 in
        let req =
          Iorequest.make s Iorequest.Write ~lba:9999 ~sectors:8 ~data ()
        in
        let t0 = Sched.now s in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) req;
        (req.Iorequest.completed_at -. t0, Sched.now s -. t0))
  in
  (* completion reported after controller + bus (~2.5ms); the mechanical
     write keeps the disk busy for a seek + rotation more. *)
  if reported > 0.005 then
    Alcotest.failf "immediate report took %.5f" reported;
  if mechanical_done <= reported then
    Alcotest.fail "mechanical work should continue after the report"

let test_disk_write_then_read_backed () =
  let contents =
    run_sim (fun s ->
        let disk = hp_setup ~backing:true s in
        let data = Data.of_string (String.make 512 'x') in
        let w = Iorequest.make s Iorequest.Write ~lba:77 ~sectors:1 ~data () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) w;
        let r = Iorequest.make s Iorequest.Read ~lba:77 ~sectors:1 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r;
        match r.Iorequest.data with
        | Some d -> Data.to_string d
        | None -> "")
  in
  Alcotest.(check string) "read back" (String.make 512 'x') contents

let test_disk_write_invalidates_cache () =
  let second_hit =
    run_sim (fun s ->
        let disk = hp_setup s in
        let r1 = Iorequest.make s Iorequest.Read ~lba:5000 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r1;
        let w = Iorequest.make s Iorequest.Write ~lba:5004 ~sectors:1
            ~data:(Data.sim 512) () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) w;
        let r2 = Iorequest.make s Iorequest.Read ~lba:5000 ~sectors:8 () in
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r2;
        Iorequest.response_time r2)
  in
  if second_hit < 0.004 then
    Alcotest.fail "overlapping write must invalidate the disk cache"

let test_disk_sequential_beats_random () =
  let seq, rand =
    run_sim (fun s ->
        let disk = hp_setup s in
        let t0 = Sched.now s in
        for i = 0 to 19 do
          let r = Iorequest.make s Iorequest.Read ~lba:(100_000 + (i * 8))
              ~sectors:8 () in
          Sim_disk.execute disk ~queue_empty:(fun () -> false) r
        done;
        let seq = Sched.now s -. t0 in
        let prng = Capfs_stats.Prng.create ~seed:9 in
        let t1 = Sched.now s in
        for _ = 0 to 19 do
          let lba = Capfs_stats.Prng.int prng 2_000_000 in
          let r = Iorequest.make s Iorequest.Read ~lba ~sectors:8 () in
          Sim_disk.execute disk ~queue_empty:(fun () -> false) r
        done;
        (seq, Sched.now s -. t1))
  in
  if seq >= rand then
    Alcotest.failf "sequential %.4f should beat random %.4f" seq rand

let test_disk_bounds_check () =
  run_sim (fun s ->
      let disk = hp_setup s in
      let beyond = Sim_disk.capacity_sectors disk - 2 in
      let r = Iorequest.make s Iorequest.Read ~lba:beyond ~sectors:8 () in
      try
        Sim_disk.execute disk ~queue_empty:(fun () -> true) r;
        Alcotest.fail "out-of-range request must raise"
      with Invalid_argument _ -> ())

(* Driver *)

let test_driver_blocking_roundtrip () =
  let s = vsched () in
  let mem = Driver.mem_transport ~sector_bytes:512 ~total_sectors:1024 s () in
  let drv = Driver.create s mem in
  ignore
    (Sched.spawn s (fun () ->
         Driver.write_exn drv ~lba:10 (Data.of_string (String.make 1024 'z'));
         let d = Driver.read_exn drv ~lba:10 ~sectors:2 in
         Alcotest.(check string) "roundtrip" (String.make 1024 'z')
           (Data.to_string d)));
  Sched.run s

let test_driver_parallel_requests_all_complete () =
  let s = vsched () in
  let bus = Bus.scsi2 s in
  let disk = Sim_disk.create s Disk_model.hp97560 bus in
  let drv = Driver.create s (Driver.sim_transport disk) in
  let done_count = ref 0 in
  for i = 0 to 19 do
    ignore
      (Sched.spawn s (fun () ->
           ignore (Driver.read_exn drv ~lba:(i * 5000) ~sectors:8);
           incr done_count))
  done;
  Sched.run s;
  Alcotest.(check int) "all 20 served" 20 !done_count

let test_driver_queueing_increases_latency () =
  (* One lone request vs. the same request behind 15 others: queueing
     delay must show up — this is the effect the whole paper hunts. *)
  let lone =
    run_sim (fun s ->
        let bus = Bus.scsi2 s in
        let disk = Sim_disk.create s Disk_model.hp97560 bus in
        let drv = Driver.create s (Driver.sim_transport disk) in
        let t0 = Sched.now s in
        ignore (Driver.read_exn drv ~lba:1_000_000 ~sectors:8);
        Sched.now s -. t0)
  in
  let s = vsched () in
  let bus = Bus.scsi2 s in
  let disk = Sim_disk.create s Disk_model.hp97560 bus in
  let drv = Driver.create s (Driver.sim_transport disk) in
  let queued = ref 0. in
  let prng = Capfs_stats.Prng.create ~seed:5 in
  for _ = 0 to 14 do
    let lba = Capfs_stats.Prng.int prng 2_000_000 in
    ignore (Sched.spawn s (fun () -> ignore (Driver.read_exn drv ~lba ~sectors:8)))
  done;
  ignore
    (Sched.spawn s (fun () ->
         let t0 = Sched.now s in
         ignore (Driver.read_exn drv ~lba:1_000_000 ~sectors:8);
         queued := Sched.now s -. t0));
  Sched.run s;
  if !queued <= lone *. 2. then
    Alcotest.failf "queued %.4f vs lone %.4f: expected queueing delay"
      !queued lone

let test_driver_drain () =
  let s = vsched () in
  let bus = Bus.scsi2 s in
  let disk = Sim_disk.create s Disk_model.hp97560 bus in
  let drv = Driver.create s (Driver.sim_transport disk) in
  let drained_at = ref 0. and last_done = ref 0. in
  for i = 0 to 9 do
    ignore
      (Sched.spawn s (fun () ->
           ignore (Driver.read_exn drv ~lba:(i * 10_000) ~sectors:8);
           last_done := Stdlib.max !last_done (Sched.now s)))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.001;
         Driver.drain drv;
         drained_at := Sched.now s));
  Sched.run s;
  if !drained_at +. 1e-9 < !last_done then
    Alcotest.failf "drain returned at %.4f before last completion %.4f"
      !drained_at !last_done

(* Request merging: two adjacent writes queued behind a busy device go
   down as one scatter-gather request, and the payload lands intact. *)
let test_driver_merges_adjacent_writes () =
  let s = vsched () in
  let mem =
    Driver.mem_transport ~latency:0.01 ~sector_bytes:512 ~total_sectors:1024 s
      ()
  in
  let drv = Driver.create ~coalesce:true s mem in
  (* occupy the device so the two adjacent writes queue and merge *)
  ignore
    (Sched.spawn s (fun () ->
         Driver.write_exn drv ~lba:100 (Data.of_string (String.make 512 'a'))));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.001;
         Driver.write_exn drv ~lba:10 (Data.of_string (String.make 512 'b'))));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.002;
         Driver.write_exn drv ~lba:11 (Data.of_string (String.make 512 'c'))));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.1;
         let d = Driver.read_exn drv ~lba:10 ~sectors:2 in
         Alcotest.(check string)
           "merged payload intact"
           (String.make 512 'b' ^ String.make 512 'c')
           (Data.to_string d)));
  Sched.run s;
  Alcotest.(check int) "one merge" 1 (Driver.merges drv)

let test_driver_merged_read_slices_per_waiter () =
  let s = vsched () in
  let mem =
    Driver.mem_transport ~latency:0.01 ~sector_bytes:512 ~total_sectors:1024 s
      ()
  in
  let drv = Driver.create ~coalesce:true s mem in
  let got = Array.make 2 "" in
  ignore
    (Sched.spawn s (fun () ->
         Driver.write_exn drv ~lba:20
           (Data.of_string (String.make 512 'x' ^ String.make 512 'y'));
         (* keep the device busy so the two reads below queue together *)
         ignore (Driver.read_exn drv ~lba:500 ~sectors:1)));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.015;
         got.(0) <- Data.to_string (Driver.read_exn drv ~lba:20 ~sectors:1)));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.016;
         got.(1) <- Data.to_string (Driver.read_exn drv ~lba:21 ~sectors:1)));
  Sched.run s;
  Alcotest.(check int) "one merge" 1 (Driver.merges drv);
  Alcotest.(check string) "first waiter's slice" (String.make 512 'x') got.(0);
  Alcotest.(check string) "second waiter's slice" (String.make 512 'y') got.(1)

let test_driver_no_merge_when_disabled () =
  let s = vsched () in
  let mem =
    Driver.mem_transport ~latency:0.01 ~sector_bytes:512 ~total_sectors:1024 s
      ()
  in
  let drv = Driver.create s mem in
  ignore
    (Sched.spawn s (fun () ->
         Driver.write_exn drv ~lba:100 (Data.of_string (String.make 512 'a'))));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.001;
         Driver.write_exn drv ~lba:10 (Data.of_string (String.make 512 'b'))));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 0.002;
         Driver.write_exn drv ~lba:11 (Data.of_string (String.make 512 'c'))));
  Sched.run s;
  Alcotest.(check int) "no merges by default" 0 (Driver.merges drv)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_geometry_bijective; prop_geometry_hp97560_bijective;
      prop_seek_monotone ]

let suite =
  [
    Alcotest.test_case "data real roundtrip" `Quick test_data_real_roundtrip;
    Alcotest.test_case "data sim behaves" `Quick test_data_sim_behaves;
    Alcotest.test_case "data blit mixed" `Quick test_data_blit_mixed;
    Alcotest.test_case "data bounds checked" `Quick test_data_bounds_checked;
    Alcotest.test_case "geometry capacity" `Quick test_geometry_capacity;
    Alcotest.test_case "geometry origin" `Quick test_geometry_mapping_origin;
    Alcotest.test_case "geometry track skew" `Quick test_geometry_track_skew;
    Alcotest.test_case "geometry out of range" `Quick
      test_geometry_out_of_range;
    Alcotest.test_case "seek zero distance" `Quick test_seek_zero_distance_free;
    Alcotest.test_case "seek hp97560 curve" `Quick test_seek_hp97560_curve;
    Alcotest.test_case "seek linear endpoints" `Quick
      test_seek_linear_endpoints;
    Alcotest.test_case "hp97560 derived quantities" `Quick
      test_hp97560_derived_quantities;
    Alcotest.test_case "bus transfer time" `Quick test_bus_transfer_time;
    Alcotest.test_case "bus contention serializes" `Quick
      test_bus_contention_serializes;
    Alcotest.test_case "fcfs order" `Quick test_fcfs_order;
    Alcotest.test_case "sstf order" `Quick test_sstf_order;
    Alcotest.test_case "look reverses" `Quick test_look_reverses;
    Alcotest.test_case "clook wraps" `Quick test_clook_wraps;
    Alcotest.test_case "scan-edf deadlines first" `Quick
      test_scan_edf_deadlines_first;
    Alcotest.test_case "policy tie-break fifo" `Quick
      test_policy_tie_break_fifo;
    Alcotest.test_case "policy by_name" `Quick test_by_name_roundtrip;
    Alcotest.test_case "disk read latency band" `Quick
      test_disk_read_latency_band;
    Alcotest.test_case "disk cache hit fast" `Quick test_disk_cache_hit_is_fast;
    Alcotest.test_case "disk read-ahead" `Quick test_disk_read_ahead_serves_next;
    Alcotest.test_case "disk immediate-report write" `Quick
      test_disk_immediate_report_write;
    Alcotest.test_case "disk backed write/read" `Quick
      test_disk_write_then_read_backed;
    Alcotest.test_case "disk write invalidates cache" `Quick
      test_disk_write_invalidates_cache;
    Alcotest.test_case "sequential beats random" `Quick
      test_disk_sequential_beats_random;
    Alcotest.test_case "disk bounds check" `Quick test_disk_bounds_check;
    Alcotest.test_case "driver blocking roundtrip" `Quick
      test_driver_blocking_roundtrip;
    Alcotest.test_case "driver parallel completes" `Quick
      test_driver_parallel_requests_all_complete;
    Alcotest.test_case "driver queueing latency" `Quick
      test_driver_queueing_increases_latency;
    Alcotest.test_case "driver drain" `Quick test_driver_drain;
    Alcotest.test_case "driver merges adjacent writes" `Quick
      test_driver_merges_adjacent_writes;
    Alcotest.test_case "merged read slices per waiter" `Quick
      test_driver_merged_read_slices_per_waiter;
    Alcotest.test_case "no merging when disabled" `Quick
      test_driver_no_merge_when_disabled;
  ]
  @ qsuite
