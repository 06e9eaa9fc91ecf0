(* The generated inputs of the serve workloads. Everything here is a
   pure function of the benchmark seed, so a seed names one op stream. *)

(* Zipf(theta) over ranks 0..n-1 as a cumulative table. *)
let zipf_cdf ~n ~theta =
  if n < 1 then invalid_arg "Streams.zipf_cdf: n < 1";
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.theta) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.0;
  cdf

(* Inverse-CDF draw: the first rank whose cumulative share reaches a
   uniform draw. *)
let zipf_pick cdf rng =
  let r = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

(* {1 serve-shared} *)

type shared_op = { client : int; file : int; write : bool }

(* An endless stream of shared-set ops: a uniformly chosen client, a
   Zipf-chosen file, and a rewrite with probability [write_frac]. *)
let shared_ops ~seed ~clients ~files ~theta ~write_frac =
  let rng = Random.State.make [| seed; 0x5ba2ed |] in
  let cdf = zipf_cdf ~n:files ~theta in
  fun () ->
    let client = Random.State.int rng clients in
    let file = zipf_pick cdf rng in
    let write = Random.State.float rng 1.0 < write_frac in
    { client; file; write }

(* The fill byte of a shared file's [version]: printable, and different
   from the previous version's. *)
let fill_byte version = Char.chr (33 + (version mod 90))

(* {1 serve-rw} *)

(* The payload a connection writes to one of its files in one cycle:
   a seed-, connection-, file- and cycle-dependent byte pattern, so a
   read that returns an older cycle's bytes (or another file's) is
   caught. *)
let rw_payload ~seed ~conn ~file ~cycle ~bytes =
  let h = Hashtbl.hash (seed, conn, file, cycle) in
  let step = 1 + (2 * (h land 0x3f)) in
  String.init bytes (fun i -> Char.chr ((h + (i * step)) land 0xff))
