type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Keep 62 bits so the value fits OCaml's 63-bit immediate int range. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let float t =
  (* 53 high-quality bits, as in Random.float. *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits /. 9007199254740992. (* 2^53 *)

let exponential t ~mean =
  let u = 1. -. float t in
  -.mean *. Stdlib.log u

let lognormal t ~mu ~sigma =
  let u1 = 1. -. float t and u2 = float t in
  let z = sqrt (-2. *. Stdlib.log u1) *. cos (2. *. Float.pi *. u2) in
  exp (mu +. (sigma *. z))

let bool t p = float t < p

let choose t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if Array.length weights = 0 || total <= 0. then
    invalid_arg "Prng.choose: empty or all-zero weights";
  let target = float t *. total in
  let rec scan i acc =
    if i = Array.length weights - 1 then i
    else begin
      let acc' = acc +. weights.(i) in
      if target < acc' then i else scan (i + 1) acc'
    end
  in
  scan 0 0.
