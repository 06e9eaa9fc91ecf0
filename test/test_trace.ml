(* Tests for trace records, the Sprite/Coda text formats and the
   synthetic workload generator. *)

open Capfs_trace

(* The text formats store microsecond precision ("usually down to the
   microsecond"), so compare times within 1 µs. *)
let rec_eq (a : Record.t) (b : Record.t) =
  a.Record.client = b.Record.client
  && a.Record.op = b.Record.op
  && (abs_float (a.Record.time -. b.Record.time) <= 1e-6
      || ((not (Record.has_time a)) && not (Record.has_time b)))

let check_record_arrays name expected actual =
  Alcotest.(check int) (name ^ " count") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun i a ->
      let b = actual.(i) in
      if not (rec_eq a b) then
        Alcotest.failf "%s mismatch at %d: %a vs %a" name i Record.pp a
          Record.pp b)
    expected

let sample_records =
  [|
    { Record.time = 0.; client = 0; op = Record.Mkdir { path = "/d0" } };
    {
      Record.time = 1.25;
      client = 3;
      op = Record.Open { path = "/d0/f1"; mode = Record.Write_only };
    };
    {
      Record.time = Record.no_time;
      client = 3;
      op = Record.Write { path = "/d0/f1"; offset = 0; bytes = 4096 };
    };
    {
      Record.time = Record.no_time;
      client = 3;
      op = Record.Truncate { path = "/d0/f1"; size = 0 };
    };
    { Record.time = 2.5; client = 3; op = Record.Close { path = "/d0/f1" } };
    {
      Record.time = 3.0;
      client = 4;
      op = Record.Open { path = "/d0/f1"; mode = Record.Read_only };
    };
    {
      Record.time = 3.1;
      client = 4;
      op = Record.Read { path = "/d0/f1"; offset = 0; bytes = 1024 };
    };
    { Record.time = 3.2; client = 4; op = Record.Close { path = "/d0/f1" } };
    { Record.time = 4.0; client = 5; op = Record.Stat { path = "/d0/f1" } };
    { Record.time = 5.0; client = 3; op = Record.Delete { path = "/d0/f1" } };
    { Record.time = 6.0; client = 0; op = Record.Rmdir { path = "/d0" } };
  |]

let test_record_accessors () =
  let r = sample_records.(2) in
  Alcotest.(check string) "path" "/d0/f1" (Record.path r);
  Alcotest.(check string) "op name" "write" (Record.op_name r);
  Alcotest.(check int) "bytes" 4096 (Record.bytes_moved r);
  Alcotest.(check bool) "no time" false (Record.has_time r)

let test_sprite_roundtrip () =
  let text = Sprite_format.to_string sample_records in
  let parsed = Sprite_format.of_string text in
  check_record_arrays "sprite" sample_records parsed

let test_sprite_comments_skipped () =
  let text = "# a header\n\n12.5 c1 stat /x\n# trailing\n" in
  match Sprite_format.of_string text with
  | [| r |] ->
    Alcotest.(check string) "op" "stat" (Record.op_name r);
    Alcotest.(check (float 1e-9)) "time" 12.5 r.Record.time
  | a -> Alcotest.failf "expected 1 record, got %d" (Array.length a)

let test_sprite_bad_input_raises () =
  List.iter
    (fun text ->
      try
        ignore (Sprite_format.of_string text);
        Alcotest.failf "should reject %S" text
      with Sprite_format.Parse_error _ -> ())
    [
      "notanumber c1 stat /x";
      "1.0 x1 stat /x";
      "1.0 c1 frobnicate /x";
      "1.0 c1 read /x abc 4096";
      "1.0 c1";
    ]

let test_coda_roundtrip () =
  let coda_records =
    Array.map
      (fun (r : Record.t) ->
        (* coda fids live under /coda/<vol>/<vnode> *)
        let fix p = "/coda/v7/" ^ string_of_int (Hashtbl.hash p land 0xffff) in
        let op =
          match r.Record.op with
          | Record.Open { path; mode } -> Record.Open { path = fix path; mode }
          | Record.Close { path } -> Record.Close { path = fix path }
          | Record.Read { path; offset; bytes } ->
            Record.Read { path = fix path; offset; bytes }
          | Record.Write { path; offset; bytes } ->
            Record.Write { path = fix path; offset; bytes }
          | Record.Stat { path } -> Record.Stat { path = fix path }
          | Record.Delete { path } -> Record.Delete { path = fix path }
          | Record.Truncate { path; size } ->
            Record.Truncate { path = fix path; size }
          | Record.Mkdir { path } -> Record.Mkdir { path = fix path }
          | Record.Rmdir { path } -> Record.Rmdir { path = fix path }
        in
        { r with Record.op })
      sample_records
  in
  let text = Coda_format.to_string coda_records in
  let parsed = Coda_format.of_string text in
  check_record_arrays "coda" coda_records parsed

let test_coda_rejects_garbage () =
  try
    ignore (Coda_format.of_string "1.0 3 OPEN nofid r\n");
    Alcotest.fail "bad fid must raise"
  with Coda_format.Parse_error _ -> ()

(* Synth *)

let small = { Synth.sprite_1a with Synth.clients = 4; files = 100; dirs = 5 }

let test_synth_deterministic () =
  let a = Synth.generate ~seed:11 ~duration:300. small in
  let b = Synth.generate ~seed:11 ~duration:300. small in
  check_record_arrays "same seed" a b;
  let c = Synth.generate ~seed:12 ~duration:300. small in
  if Array.length a = Array.length c
     && Array.for_all2 rec_eq a c then
    Alcotest.fail "different seeds should differ"

let test_synth_times_sorted () =
  let recs = Synth.generate ~seed:3 ~duration:600. small in
  let last = ref 0. in
  Array.iter
    (fun r ->
      if Record.has_time r then begin
        if r.Record.time < !last -. 1e-9 then
          Alcotest.failf "time goes backwards at %a" Record.pp r;
        last := r.Record.time
      end)
    recs

let test_synth_sessions_well_formed () =
  (* every read/write/close is preceded by an open from the same client *)
  let recs = Synth.generate ~seed:5 ~duration:600. small in
  let open_files : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (r : Record.t) ->
      let key = (r.Record.client, Record.path r) in
      match r.Record.op with
      | Record.Open _ -> Hashtbl.replace open_files key ()
      | Record.Read _ | Record.Write _ ->
        if not (Hashtbl.mem open_files key) then
          Alcotest.failf "I/O without open: %a" Record.pp r
      | Record.Close _ ->
        if not (Hashtbl.mem open_files key) then
          Alcotest.failf "close without open: %a" Record.pp r;
        Hashtbl.remove open_files key
      | Record.Stat _ | Record.Delete _ | Record.Truncate _ | Record.Mkdir _
      | Record.Rmdir _ -> ())
    recs

let test_synth_io_times_unrecorded_by_default () =
  let recs = Synth.generate ~seed:7 ~duration:300. small in
  let io_with_time =
    Array.exists
      (fun (r : Record.t) ->
        match r.Record.op with
        | Record.Read _ | Record.Write _ -> Record.has_time r
        | _ -> false)
      recs
  in
  Alcotest.(check bool) "io times missing, like real Sprite traces" false
    io_with_time;
  let recs2 =
    Synth.generate ~seed:7 ~duration:300.
      { small with Synth.record_io_times = true }
  in
  let all_io_timed =
    Array.for_all
      (fun (r : Record.t) ->
        match r.Record.op with
        | Record.Read _ | Record.Write _ -> Record.has_time r
        | _ -> true)
      recs2
  in
  Alcotest.(check bool) "opt-in io times" true all_io_timed

let test_synth_profiles_have_character () =
  (* sprite-5 must move far more write bytes than sprite-1a at equal
     duration; sprite-1a must have more reads than writes. *)
  let bytes_of recs p =
    Array.fold_left
      (fun (r, w) (x : Record.t) ->
        match x.Record.op with
        | Record.Read { bytes; _ } -> (r + bytes, w)
        | Record.Write { bytes; _ } -> (r, w + bytes)
        | _ -> (r, w))
      (0, 0) recs
    |> fun (r, w) ->
    ignore p;
    (r, w)
  in
  let r1a = Synth.generate ~seed:42 ~duration:900. Synth.sprite_1a in
  let r5 = Synth.generate ~seed:42 ~duration:900. Synth.sprite_5 in
  let _, w1a = bytes_of r1a Synth.sprite_1a in
  let reads_1a, _ = bytes_of r1a Synth.sprite_1a in
  let _, w5 = bytes_of r5 Synth.sprite_5 in
  if w5 <= 2 * w1a then
    Alcotest.failf "sprite-5 writes (%d) should dwarf 1a writes (%d)" w5 w1a;
  if reads_1a = 0 then Alcotest.fail "sprite-1a must read"

let test_synth_deletes_happen () =
  let recs = Synth.generate ~seed:9 ~duration:1200. small in
  let deletes =
    Array.fold_left
      (fun n (r : Record.t) ->
        match r.Record.op with Record.Delete _ -> n + 1 | _ -> n)
      0 recs
  in
  if deletes = 0 then Alcotest.fail "workload must delete files"

let test_profile_by_name () =
  List.iter
    (fun (p : Synth.profile) ->
      let q = Synth.profile_by_name p.Synth.profile_name in
      Alcotest.(check string) "roundtrip" p.Synth.profile_name
        q.Synth.profile_name)
    Synth.all_profiles;
  try
    ignore (Synth.profile_by_name "sprite-9z");
    Alcotest.fail "unknown profile must raise"
  with Invalid_argument _ -> ()

(* The generator as it was before emission went into growable arrays
   and the sort became a radix sort: records consed onto a list, then a
   heap sort of emission indices on (key, index). Kept as the reference
   that [Synth.generate] must match record for record. *)
module Reference_synth = struct
  module Prng = Capfs_stats.Prng

  type state = {
    sizes : (int, int) Hashtbl.t;
    mutable existing : int list;
  }

  let file_path (p : Synth.profile) fid =
    Printf.sprintf "/d%d/f%d" (fid mod p.dirs) fid

  let pick_file (p : Synth.profile) rng =
    let hot = Prng.bool rng p.hot_fraction in
    let span = Stdlib.max 1 (p.files / 10) in
    if hot then Prng.int rng span
    else span + Prng.int rng (Stdlib.max 1 (p.files - span))

  let pick_existing rng st =
    match st.existing with
    | [] -> None
    | files ->
      let n = List.length files in
      Some (List.nth files (Prng.int rng n))

  let io_records (p : Synth.profile) ~client ~path ~write ~bytes ~t_open
      ~t_close =
    let unit_ = p.io_unit in
    let n = Stdlib.max 1 ((bytes + unit_ - 1) / unit_) in
    List.init n (fun i ->
        let offset = i * unit_ in
        let len = Stdlib.min unit_ (bytes - offset) in
        let len = Stdlib.max 1 len in
        let time =
          if p.record_io_times then
            t_open +. ((t_close -. t_open) *. float_of_int (i + 1)
                       /. float_of_int (n + 1))
          else Record.no_time
        in
        if write then
          { Record.time; client; op = Record.Write { path; offset; bytes = len } }
        else
          { Record.time; client; op = Record.Read { path; offset; bytes = len } })

  let generate ~seed ~duration (p : Synth.profile) =
    let rng = Prng.create ~seed in
    let st = { sizes = Hashtbl.create 1024; existing = [] } in
    let out = ref [] in
    let emit r = out := r :: !out in
    for d = 0 to p.dirs - 1 do
      emit
        {
          Record.time = 0.;
          client = 0;
          op = Record.Mkdir { path = Printf.sprintf "/d%d" d };
        }
    done;
    for client = 1 to p.clients do
      let crng = Prng.split rng in
      let t = ref (Prng.exponential crng ~mean:p.mean_think) in
      while !t < duration do
        let t0 = !t in
        if Prng.bool crng p.stat_fraction then begin
          let n = 1 + Prng.int crng 4 in
          for i = 0 to n - 1 do
            let fid = pick_file p crng in
            emit
              {
                Record.time = t0 +. (0.01 *. float_of_int i);
                client;
                op = Record.Stat { path = file_path p fid };
              }
          done;
          t := t0 +. 0.05 +. Prng.exponential crng ~mean:p.mean_think
        end
        else begin
          let want_read = Prng.bool crng p.read_fraction in
          let read_target =
            if not want_read then None
            else if Prng.bool crng p.cold_read_fraction then
              Some (pick_file p crng)
            else pick_existing crng st
          in
          match (want_read, read_target) with
          | true, Some fid ->
            let path = file_path p fid in
            let bytes =
              match Hashtbl.find_opt st.sizes fid with
              | Some b -> Stdlib.max 1 b
              | None ->
                let b =
                  int_of_float
                    (Prng.lognormal crng ~mu:p.file_size_mu
                       ~sigma:p.file_size_sigma)
                in
                Stdlib.max 256 (Stdlib.min b (1 lsl 20))
            in
            let io_time = float_of_int bytes /. 2.0e6 in
            let t_close = t0 +. 0.02 +. io_time in
            emit
              {
                Record.time = t0;
                client;
                op = Record.Open { path; mode = Record.Read_only };
              };
            List.iter emit
              (io_records p ~client ~path ~write:false ~bytes ~t_open:t0
                 ~t_close);
            emit { Record.time = t_close; client; op = Record.Close { path } };
            t := t_close +. Prng.exponential crng ~mean:p.mean_think
          | true, None | false, _ ->
            let fid = pick_file p crng in
            let path = file_path p fid in
            let bytes =
              if Prng.bool crng p.large_write_fraction then
                p.large_size / 2
                + Prng.int crng (Stdlib.max 1 (p.large_size / 2))
              else
                let b =
                  int_of_float
                    (Prng.lognormal crng ~mu:p.file_size_mu
                       ~sigma:p.file_size_sigma)
                in
                Stdlib.max 256 (Stdlib.min b (1 lsl 22))
            in
            let existed = Hashtbl.mem st.sizes fid in
            let truncate_first =
              existed && Prng.bool crng p.truncate_on_rewrite
            in
            let io_time = float_of_int bytes /. 1.5e6 in
            let t_close = t0 +. 0.03 +. io_time in
            emit
              {
                Record.time = t0;
                client;
                op = Record.Open { path; mode = Record.Write_only };
              };
            if truncate_first then
              emit
                {
                  Record.time = Record.no_time;
                  client;
                  op = Record.Truncate { path; size = 0 };
                };
            List.iter emit
              (io_records p ~client ~path ~write:true ~bytes ~t_open:t0
                 ~t_close);
            emit { Record.time = t_close; client; op = Record.Close { path } };
            Hashtbl.replace st.sizes fid bytes;
            if not existed then st.existing <- fid :: st.existing;
            if Prng.bool crng p.delete_after_write then begin
              let t_del = t_close +. Prng.exponential crng ~mean:10.0 in
              if t_del < duration then begin
                emit
                  { Record.time = t_del; client; op = Record.Delete { path } };
                Hashtbl.remove st.sizes fid;
                st.existing <- List.filter (fun f -> f <> fid) st.existing
              end
            end;
            t := t_close +. Prng.exponential crng ~mean:p.mean_think
        end
      done
    done;
    let records = Array.of_list (List.rev !out) in
    let n = Array.length records in
    let keys = Array.make n 0. in
    let last = ref 0. in
    for i = 0 to n - 1 do
      if Record.has_time records.(i) then last := records.(i).Record.time;
      keys.(i) <- !last
    done;
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare keys.(a) keys.(b) in
        if c <> 0 then c else compare a b)
      order;
    Array.map (fun i -> records.(i)) order
end

let synth_matches (seed, duration, p, io) =
  let p = { p with Synth.record_io_times = io } in
  let expected = Reference_synth.generate ~seed ~duration p in
  let actual = Synth.generate ~seed ~duration p in
  (* [=] on the records themselves: times must be equal, not close *)
  Array.length expected = Array.length actual
  && Array.for_all2 (fun (a : Record.t) b -> a = b) expected actual

let prop_synth_matches_reference =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 1_000_000) (float_range 30. 120.)
        (oneofl Synth.all_profiles) bool)
  in
  let print (seed, duration, (p : Synth.profile), io) =
    Printf.sprintf "seed %d, %.3f s of %s%s" seed duration p.profile_name
      (if io then " with io times" else "")
  in
  QCheck.Test.make ~name:"synth equals the reference generator" ~count:25
    (QCheck.make ~print gen)
    synth_matches

(* The generator emits into chunks of 2^16 records; 250 s of sprite-5
   fills more than two of them. *)
let test_synth_matches_reference_across_chunks () =
  Alcotest.(check bool) "spans three chunks" true
    (Array.length (Synth.generate ~seed:7 ~duration:250. Synth.sprite_5)
     > 2 * 65536);
  Alcotest.(check bool) "equal to the reference" true
    (synth_matches (7, 250., Synth.sprite_5, false))

let test_synth_untimed_share_no_time () =
  let records = Synth.generate ~seed:3 ~duration:60. Synth.sprite_5 in
  let untimed =
    List.filter (fun r -> not (Record.has_time r)) (Array.to_list records)
  in
  Alcotest.(check bool) "some untimed" true (List.length untimed > 100);
  let first = (List.hd untimed).Record.time in
  List.iter
    (fun r ->
      if Obj.repr r.Record.time != Obj.repr first then
        Alcotest.failf "untimed record %a has its own time box" Record.pp r)
    untimed;
  let parsed = Sprite_format.of_string "? c1 read /x 0 10\n? c2 stat /y\n" in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "parsed untimed shares it" true
        (Obj.repr r.Record.time == Obj.repr first))
    parsed

let prop_sprite_roundtrip =
  let record_gen =
    QCheck.Gen.(
      let path = map (Printf.sprintf "/d%d/f%d") (int_range 0 9) >>= fun f ->
        map f (int_range 0 99)
      in
      let* time = frequency [ (4, map (fun t -> abs_float t)
                                  (float_bound_exclusive 10000.));
                              (1, return Record.no_time) ] in
      let* client = int_range 0 50 in
      let* op =
        frequency
          [
            (2, map (fun p -> Record.Open { path = p; mode = Record.Read_only }) path);
            (2, map (fun p -> Record.Close { path = p }) path);
            (3, map3 (fun p o b -> Record.Read { path = p; offset = o; bytes = b })
               path (int_range 0 100000) (int_range 1 65536));
            (3, map3 (fun p o b -> Record.Write { path = p; offset = o; bytes = b })
               path (int_range 0 100000) (int_range 1 65536));
            (1, map (fun p -> Record.Stat { path = p }) path);
            (1, map (fun p -> Record.Delete { path = p }) path);
            (1, map2 (fun p n -> Record.Truncate { path = p; size = n }) path
               (int_range 0 100000));
          ]
      in
      return { Record.time; client; op })
  in
  QCheck.Test.make ~name:"sprite format round-trips arbitrary records"
    ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) record_gen))
    (fun records ->
      let records = Array.of_list records in
      let parsed = Sprite_format.of_string (Sprite_format.to_string records) in
      Array.length parsed = Array.length records
      && Array.for_all2 rec_eq records parsed)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sprite_roundtrip; prop_synth_matches_reference ]

let suite =
  [
    Alcotest.test_case "record accessors" `Quick test_record_accessors;
    Alcotest.test_case "sprite roundtrip" `Quick test_sprite_roundtrip;
    Alcotest.test_case "sprite comments" `Quick test_sprite_comments_skipped;
    Alcotest.test_case "sprite rejects garbage" `Quick
      test_sprite_bad_input_raises;
    Alcotest.test_case "coda roundtrip" `Quick test_coda_roundtrip;
    Alcotest.test_case "coda rejects garbage" `Quick test_coda_rejects_garbage;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth times sorted" `Quick test_synth_times_sorted;
    Alcotest.test_case "synth sessions well-formed" `Quick
      test_synth_sessions_well_formed;
    Alcotest.test_case "synth io times unrecorded" `Quick
      test_synth_io_times_unrecorded_by_default;
    Alcotest.test_case "synth profiles differ" `Quick
      test_synth_profiles_have_character;
    Alcotest.test_case "synth deletes happen" `Quick test_synth_deletes_happen;
    Alcotest.test_case "profile by name" `Quick test_profile_by_name;
    Alcotest.test_case "synth untimed records share no_time" `Quick
      test_synth_untimed_share_no_time;
    Alcotest.test_case "synth equals the reference generator across chunks"
      `Quick test_synth_matches_reference_across_chunks;
  ]
  @ qsuite
