(* Exact latency samples and the order statistics the benchmark
   reports. No buckets: every observation is kept. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 4096 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let a' = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 a' 0 t.n;
    t.a <- a'
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q] of all samples at or below it. The epsilon keeps
   [0.99 *. 100.] from rounding up to rank 100. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Samples.percentile: no samples";
  if q < 0. || q > 1. then invalid_arg "Samples.percentile: q outside [0,1]";
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let quantile t q = percentile (sorted t) q

(* Median of a list; the mean of the middle pair for an even count. *)
let median = function
  | [] -> invalid_arg "Samples.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
