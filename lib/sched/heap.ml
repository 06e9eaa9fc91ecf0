(* A timer's expiry is a boxed float in its record, so [top_at] hands
   out the box the caller pushed and the scheduler stores it as the
   virtual clock: neither allocates, even across modules compiled
   without cross-module inlining. *)
type 'a timer = { at : float; seq : int; v : 'a }
type 'a t = { mutable data : 'a timer array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

(* [a] comes strictly before [b]; [Float.compare] keeps the order total
   even for a NaN expiry. *)
let before a b =
  let c = Float.compare a.at b.at in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Sift up through a hole: parents that come after the new timer move
   down one level, and the timer is written once, where the hole ends. *)
let push q ~at ~seq v =
  let x = { at; seq; v } in
  if q.len = Array.length q.data then begin
    let grown = Array.make (Stdlib.max 8 (2 * q.len)) x in
    Array.blit q.data 0 grown 0 q.len;
    q.data <- grown
  end;
  let i = ref q.len in
  q.len <- q.len + 1;
  while !i > 0 && before x q.data.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    q.data.(!i) <- q.data.(p);
    i := p
  done;
  q.data.(!i) <- x

let top_at q =
  if q.len = 0 then invalid_arg "Heap.top_at: empty";
  q.data.(0).at

(* The last timer fills the root's hole and sifts down through it. *)
let pop q =
  if q.len = 0 then invalid_arg "Heap.pop: empty";
  let top = q.data.(0) in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    let x = q.data.(n) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let c =
          if l + 1 < n && before q.data.(l + 1) q.data.(l) then l + 1 else l
        in
        if before q.data.(c) x then begin
          q.data.(!i) <- q.data.(c);
          i := c
        end
        else sinking := false
      end
    done;
    q.data.(!i) <- x
  end;
  top.v
