module Prng = Capfs_stats.Prng

type profile = {
  profile_name : string;
  clients : int;
  duration : float;
  mean_think : float;
  files : int;
  dirs : int;
  file_size_mu : float;
  file_size_sigma : float;
  read_fraction : float;
  cold_read_fraction : float;
  stat_fraction : float;
  delete_after_write : float;
  truncate_on_rewrite : float;
  io_unit : int;
  large_write_fraction : float;
  large_size : int;
  hot_fraction : float;
  record_io_times : bool;
}

(* Baseline: an engineering-workstation day à la Baker et al. '91 —
   mostly reads, small files (median ~4-8 KB), a hot working set. *)
let sprite_1a =
  {
    profile_name = "sprite-1a";
    clients = 20;
    duration = 7200.;
    mean_think = 4.0;
    files = 2000;
    dirs = 40;
    file_size_mu = log 8192.;
    file_size_sigma = 1.2;
    read_fraction = 0.65;
    cold_read_fraction = 0.35;
    stat_fraction = 0.15;
    delete_after_write = 0.35;
    truncate_on_rewrite = 0.5;
    io_unit = 4096;
    large_write_fraction = 0.02;
    large_size = 1 lsl 20;
    hot_fraction = 0.7;
    record_io_times = false;
  }

let sprite_1b =
  {
    sprite_1a with
    profile_name = "sprite-1b";
    read_fraction = 0.45;
    large_write_fraction = 0.22;
    large_size = 2 lsl 20;
    mean_think = 3.0;
    delete_after_write = 0.25;
  }

let sprite_2a =
  {
    sprite_1a with
    profile_name = "sprite-2a";
    clients = 14;
    read_fraction = 0.7;
    stat_fraction = 0.2;
    mean_think = 5.0;
  }

let sprite_2b =
  {
    sprite_1a with
    profile_name = "sprite-2b";
    clients = 26;
    read_fraction = 0.55;
    delete_after_write = 0.45;
    mean_think = 3.5;
  }

let sprite_5 =
  {
    sprite_1a with
    profile_name = "sprite-5";
    read_fraction = 0.40;
    stat_fraction = 0.25;
    large_write_fraction = 0.30;
    large_size = 3 lsl 20;
    delete_after_write = 0.10;
    mean_think = 3.0;
  }

let all_profiles = [ sprite_1a; sprite_1b; sprite_2a; sprite_2b; sprite_5 ]

let profile_by_name name =
  match
    List.find_opt (fun p -> p.profile_name = name) all_profiles
  with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Synth.profile_by_name: unknown profile %S (know: %s)"
         name
         (String.concat ", " (List.map (fun p -> p.profile_name) all_profiles)))

(* Generator state: which files exist and how big they are, per the
   operations generated so far. *)
type state = {
  sizes : (int, int) Hashtbl.t; (* file id -> bytes *)
  mutable existing : int list;
}

let file_path p fid = Printf.sprintf "/d%d/f%d" (fid mod p.dirs) fid

let pick_file p rng =
  (* hot 10% of the id space receives [hot_fraction] of accesses *)
  let hot = Prng.bool rng p.hot_fraction in
  let span = Stdlib.max 1 (p.files / 10) in
  if hot then Prng.int rng span else span + Prng.int rng (Stdlib.max 1 (p.files - span))

let pick_existing rng st =
  match st.existing with
  | [] -> None
  | files ->
    let n = List.length files in
    Some (List.nth files (Prng.int rng n))

(* The trace under construction, in emission order: each record with
   its sort key, the time of the latest timed record at or before it in
   emission order. Times are never negative, so a key is stored as the
   IEEE bits of the float, which order like the float does. *)
type emitted = {
  mutable recs : Record.t array;
  mutable keys : int array;
  mutable len : int;
  mutable last_key : int;
}

(* [compare] holds -0. equal to +0.; their bits differ, so add 0. to
   turn -0. into +0. before taking them. Bit 63 (the sign) is then 0,
   and the 63-bit int keeps the other 63. *)
let key_bits time = Int64.to_int (Int64.bits_of_float (time +. 0.))

let emit e (r : Record.t) =
  if e.len = Array.length e.recs then begin
    let cap = Stdlib.max 1024 (2 * e.len) in
    let recs = Array.make cap r and keys = Array.make cap 0 in
    Array.blit e.recs 0 recs 0 e.len;
    Array.blit e.keys 0 keys 0 e.len;
    e.recs <- recs;
    e.keys <- keys
  end;
  if Record.has_time r then e.last_key <- key_bits r.Record.time;
  e.recs.(e.len) <- r;
  e.keys.(e.len) <- e.last_key;
  e.len <- e.len + 1

let emit_io e p ~client ~path ~write ~bytes ~t_open ~t_close =
  let unit_ = p.io_unit in
  let n = Stdlib.max 1 ((bytes + unit_ - 1) / unit_) in
  for i = 0 to n - 1 do
    let offset = i * unit_ in
    let len = Stdlib.max 1 (Stdlib.min unit_ (bytes - offset)) in
    let op =
      if write then Record.Write { path; offset; bytes = len }
      else Record.Read { path; offset; bytes = len }
    in
    emit e
      (if p.record_io_times then
         (* equidistant, which is also what the replay synthesizes *)
         Record.make
           ~time:
             (t_open +. ((t_close -. t_open) *. float_of_int (i + 1)
                         /. float_of_int (n + 1)))
           ~client op
       else Record.make ~time:Record.no_time ~client op)
  done

(* Emission indices ordered by key, emission order breaking ties: a
   stable LSD radix sort, four 16-bit digits of the 63-bit keys. *)
let sort_by_key keys n =
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let count = Array.make 0x10000 0 in
  for pass = 0 to 3 do
    let shift = 16 * pass in
    Array.fill count 0 0x10000 0;
    for i = 0 to n - 1 do
      let d = (keys.(i) lsr shift) land 0xffff in
      count.(d) <- count.(d) + 1
    done;
    let sum = ref 0 in
    for d = 0 to 0xffff do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    let s = !src and t = !dst in
    for i = 0 to n - 1 do
      let j = s.(i) in
      let d = (keys.(j) lsr shift) land 0xffff in
      t.(count.(d)) <- j;
      count.(d) <- count.(d) + 1
    done;
    src := t;
    dst := s
  done;
  !src

let generate ~seed ?duration p =
  let duration = match duration with Some d -> d | None -> p.duration in
  let rng = Prng.create ~seed in
  let st = { sizes = Hashtbl.create 1024; existing = [] } in
  let e = { recs = [||]; keys = [||]; len = 0; last_key = 0 } in
  (* directories first *)
  for d = 0 to p.dirs - 1 do
    emit e
      (Record.make ~time:0. ~client:0
         (Record.Mkdir { path = Printf.sprintf "/d%d" d }))
  done;
  (* Each client walks its own timeline; records merge afterwards. The
     per-client PRNGs split off the master so adding a client does not
     perturb the others' streams. *)
  for client = 1 to p.clients do
    let crng = Prng.split rng in
    let t = ref (Prng.exponential crng ~mean:p.mean_think) in
    while !t < duration do
      let t0 = !t in
      if Prng.bool crng p.stat_fraction then begin
        (* stat burst: getattrs against a few files *)
        let n = 1 + Prng.int crng 4 in
        for i = 0 to n - 1 do
          let fid = pick_file p crng in
          emit e
            (Record.make
               ~time:(t0 +. (0.01 *. float_of_int i))
               ~client
               (Record.Stat { path = file_path p fid }))
        done;
        t := t0 +. 0.05 +. Prng.exponential crng ~mean:p.mean_think
      end
      else begin
        let want_read = Prng.bool crng p.read_fraction in
        let read_target =
          if not want_read then None
          else if Prng.bool crng p.cold_read_fraction then
            (* a pre-existing file the trace never wrote *)
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
              (* size of the pre-existing file: same distribution *)
              let b =
                int_of_float
                  (Prng.lognormal crng ~mu:p.file_size_mu
                     ~sigma:p.file_size_sigma)
              in
              Stdlib.max 256 (Stdlib.min b (1 lsl 20))
          in
          let io_time = float_of_int bytes /. 2.0e6 in
          let t_close = t0 +. 0.02 +. io_time in
          emit e
            (Record.make ~time:t0 ~client
               (Record.Open { path; mode = Record.Read_only }));
          emit_io e p ~client ~path ~write:false ~bytes ~t_open:t0 ~t_close;
          emit e (Record.make ~time:t_close ~client (Record.Close { path }));
          t := t_close +. Prng.exponential crng ~mean:p.mean_think
        | true, None | false, _ ->
          (* write session *)
          let fid = pick_file p crng in
          let path = file_path p fid in
          let bytes =
            if Prng.bool crng p.large_write_fraction then
              p.large_size / 2 + Prng.int crng (Stdlib.max 1 (p.large_size / 2))
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
          emit e
            (Record.make ~time:t0 ~client
               (Record.Open { path; mode = Record.Write_only }));
          if truncate_first then
            emit e
              (Record.make ~time:Record.no_time ~client
                 (Record.Truncate { path; size = 0 }));
          emit_io e p ~client ~path ~write:true ~bytes ~t_open:t0 ~t_close;
          emit e (Record.make ~time:t_close ~client (Record.Close { path }));
          Hashtbl.replace st.sizes fid bytes;
          if not existed then st.existing <- fid :: st.existing;
          (* short-lived data: delete soon after writing *)
          if Prng.bool crng p.delete_after_write then begin
            let t_del = t_close +. Prng.exponential crng ~mean:10.0 in
            if t_del < duration then begin
              emit e
                (Record.make ~time:t_del ~client (Record.Delete { path }));
              Hashtbl.remove st.sizes fid;
              st.existing <- List.filter (fun f -> f <> fid) st.existing
            end
          end;
          t := t_close +. Prng.exponential crng ~mean:p.mean_think
      end
    done
  done;
  (* Sort by key: an untimed record keeps the time of the timed record
     emitted before it, so it stays with its session. *)
  let order = sort_by_key e.keys e.len in
  Array.map (fun i -> e.recs.(i)) order

let source ~seed ?duration p =
  (* generation materializes the whole array anyway (the final global
     sort needs it), so the source is array-backed, but lazy: a fleet
     worker that never runs this trace never pays for it. For
     O(1)-memory replay of a big synthetic trace, save it to a file and
     stream with [Source.sprite_file]. *)
  Source.of_lazy ~name:p.profile_name (lazy (generate ~seed ?duration p))
