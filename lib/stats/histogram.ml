type scheme =
  | Linear of { lo : float; width : float }
  | Log of { log_lo : float; log_width : float }

type t = {
  scheme : scheme;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let linear ~lo ~hi ~buckets =
  if hi <= lo then invalid_arg "Histogram.linear: hi <= lo";
  if buckets < 1 then invalid_arg "Histogram.linear: buckets < 1";
  let width = (hi -. lo) /. float_of_int buckets in
  {
    scheme = Linear { lo; width };
    counts = Array.make buckets 0;
    underflow = 0;
    overflow = 0;
    total = 0;
  }

let log ~lo ~hi ~per_decade =
  if lo <= 0. then invalid_arg "Histogram.log: lo <= 0";
  if hi <= lo then invalid_arg "Histogram.log: hi <= lo";
  if per_decade < 1 then invalid_arg "Histogram.log: per_decade < 1";
  let log_lo = log10 lo in
  let log_width = 1. /. float_of_int per_decade in
  let buckets =
    int_of_float (ceil (((log10 hi -. log_lo) /. log_width) -. 1e-9))
  in
  {
    scheme = Log { log_lo; log_width };
    counts = Array.make (Stdlib.max 1 buckets) 0;
    underflow = 0;
    overflow = 0;
    total = 0;
  }

let index t x =
  match t.scheme with
  | Linear { lo; width } -> int_of_float (floor ((x -. lo) /. width))
  | Log { log_lo; log_width } ->
    if x <= 0. then -1
    else int_of_float (floor ((log10 x -. log_lo) /. log_width))

let add ?(weight = 1) t x =
  let i = index t x in
  if i < 0 then t.underflow <- t.underflow + weight
  else if i >= Array.length t.counts then t.overflow <- t.overflow + weight
  else t.counts.(i) <- t.counts.(i) + weight;
  t.total <- t.total + weight

let buckets t = Array.length t.counts

let bounds t i =
  match t.scheme with
  | Linear { lo; width } ->
    (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width))
  | Log { log_lo; log_width } ->
    ( 10. ** (log_lo +. (float_of_int i *. log_width)),
      10. ** (log_lo +. (float_of_int (i + 1) *. log_width)) )

let count t i = t.counts.(i)
let underflow t = t.underflow
let overflow t = t.overflow
let total t = t.total

let cdf t =
  if t.total = 0 then []
  else begin
    let tot = float_of_int t.total in
    let acc = ref t.underflow in
    let points = ref [] in
    for i = 0 to Array.length t.counts - 1 do
      acc := !acc + t.counts.(i);
      let _, hi = bounds t i in
      points := (hi, float_of_int !acc /. tot) :: !points
    done;
    List.rev !points
  end

let quantile t q =
  if t.total = 0 then invalid_arg "Histogram.quantile: empty histogram";
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q out of range";
  let target = q *. float_of_int t.total in
  let rec scan i acc =
    if i >= Array.length t.counts then fst (bounds t (Array.length t.counts - 1))
    else begin
      let acc' = acc +. float_of_int t.counts.(i) in
      if acc' >= target && t.counts.(i) > 0 then begin
        let lo, hi = bounds t i in
        let frac = (target -. acc) /. float_of_int t.counts.(i) in
        lo +. ((hi -. lo) *. Stdlib.max 0. (Stdlib.min 1. frac))
      end
      else scan (i + 1) acc'
    end
  in
  scan 0 (float_of_int t.underflow)

let merge ~into t =
  if into.scheme <> t.scheme
     || Array.length into.counts <> Array.length t.counts
  then invalid_arg "Histogram.merge: different bucket bounds";
  Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) t.counts;
  into.underflow <- into.underflow + t.underflow;
  into.overflow <- into.overflow + t.overflow;
  into.total <- into.total + t.total

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.underflow <- 0;
  t.overflow <- 0;
  t.total <- 0

let pp ppf t =
  let bar n =
    let width =
      if t.total = 0 then 0 else n * 50 / t.total
    in
    String.make width '#'
  in
  if t.underflow > 0 then
    Format.fprintf ppf "@[<h>     <lo : %8d %s@]@," t.underflow (bar t.underflow);
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        let lo, hi = bounds t i in
        Format.fprintf ppf "@[<h>[%.4g, %.4g): %8d %s@]@," lo hi n (bar n)
      end)
    t.counts;
  if t.overflow > 0 then
    Format.fprintf ppf "@[<h>    >=hi : %8d %s@]@," t.overflow (bar t.overflow)
