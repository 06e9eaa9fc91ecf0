type ops = {
  o_name : string;
  o_insert : Block.t -> unit;
  o_access : Block.t -> unit;
  o_forget : Block.t -> unit;
  o_victim : unit -> Block.t option;
  o_count : unit -> int;
}

type t = ops

let name t = t.o_name
let insert t b = t.o_insert b
let access t b = t.o_access b
let forget t b = t.o_forget b
let victim t = t.o_victim ()
let count t = t.o_count ()

module Ktbl = Hashtbl.Make (Block.Key)

(* LRU on the blocks' own replacement links: a circular list through a
   sentinel, front (the sentinel's [repl_next]) = most recent, victims
   from the back. A block is on this list iff its [policy_slot] is
   [tag], so SLRU's two segments share the one pair of links. Pinned
   blocks at the back are temporarily skipped by relinking them to the
   front (they are hot by definition: an I/O holds them). *)
let lru_ops list_name ~tag =
  let head = Block.sentinel () in
  let len = ref 0 in
  let link_front (b : Block.t) =
    let first = head.Block.repl_next in
    b.Block.repl_prev <- head;
    b.Block.repl_next <- first;
    first.Block.repl_prev <- b;
    head.Block.repl_next <- b
  in
  let unlink (b : Block.t) =
    b.Block.repl_prev.Block.repl_next <- b.Block.repl_next;
    b.Block.repl_next.Block.repl_prev <- b.Block.repl_prev;
    b.Block.repl_prev <- b;
    b.Block.repl_next <- b
  in
  let insert b =
    if b.Block.policy_slot < 0 then begin
      link_front b;
      b.Block.policy_slot <- tag;
      incr len
    end
  in
  let access b =
    if b.Block.policy_slot = tag then begin
      unlink b;
      link_front b
    end
  in
  let forget b =
    if b.Block.policy_slot = tag then begin
      unlink b;
      b.Block.policy_slot <- -1;
      decr len
    end
  in
  let victim () =
    let rec go attempts =
      let b = head.Block.repl_prev in
      if attempts = 0 || b == head then None
      else if Block.evictable b then begin
        forget b;
        Some b
      end
      else begin
        unlink b;
        link_front b;
        go (attempts - 1)
      end
    in
    go !len
  in
  {
    o_name = list_name;
    o_insert = insert;
    o_access = access;
    o_forget = forget;
    o_victim = victim;
    o_count = (fun () -> !len);
  }

let lru () = lru_ops "lru" ~tag:0

(* Array-backed set with O(1) swap-remove through Block.policy_slot. *)
module Pool = struct
  type pool = { mutable blocks : Block.t array; mutable len : int }

  let create () = { blocks = [||]; len = 0 }

  let add p b =
    if b.Block.policy_slot >= 0 then ()
    else begin
      if p.len = Array.length p.blocks then begin
        let grown = Array.make (Stdlib.max 16 (2 * p.len)) b in
        Array.blit p.blocks 0 grown 0 p.len;
        p.blocks <- grown
      end;
      p.blocks.(p.len) <- b;
      b.Block.policy_slot <- p.len;
      p.len <- p.len + 1
    end

  let remove p b =
    let i = b.Block.policy_slot in
    if i >= 0 && i < p.len && p.blocks.(i) == b then begin
      let last = p.blocks.(p.len - 1) in
      p.blocks.(i) <- last;
      last.Block.policy_slot <- i;
      b.Block.policy_slot <- -1;
      p.len <- p.len - 1
    end

  let min_by p key =
    let best = ref None in
    for i = 0 to p.len - 1 do
      let b = p.blocks.(i) in
      if Block.evictable b then
        match !best with
        | Some best_b when key best_b <= key b -> ()
        | Some _ | None -> best := Some b
    done;
    !best
  end

let random ~seed =
  let pool = Pool.create () in
  let rng = Capfs_stats.Prng.create ~seed in
  let victim () =
    if pool.Pool.len = 0 then None
    else begin
      (* a few random probes, then give up and scan *)
      let rec probe n =
        if n = 0 then Pool.min_by pool (fun b -> b.Block.times.Block.last_access)
        else begin
          let b = pool.Pool.blocks.(Capfs_stats.Prng.int rng pool.Pool.len) in
          if Block.evictable b then Some b else probe (n - 1)
        end
      in
      match probe 8 with
      | Some b ->
        Pool.remove pool b;
        Some b
      | None -> None
    end
  in
  {
    o_name = "random";
    o_insert = Pool.add pool;
    o_access = (fun _ -> ());
    o_forget = Pool.remove pool;
    o_victim = victim;
    o_count = (fun () -> pool.Pool.len);
  }

let lfu () =
  let pool = Pool.create () in
  let victim () =
    match Pool.min_by pool (fun b -> b.Block.access_count) with
    | Some b ->
      Pool.remove pool b;
      Some b
    | None -> None
  in
  {
    o_name = "lfu";
    o_insert = Pool.add pool;
    o_access = (fun _ -> ());
    (* access_count lives on the block *)
    o_forget = Pool.remove pool;
    o_victim = victim;
    o_count = (fun () -> pool.Pool.len);
  }

let slru ~protected_capacity =
  if protected_capacity < 1 then invalid_arg "Replacement.slru: capacity < 1";
  let probation = lru_ops "slru.probation" ~tag:0 in
  let protected_ = lru_ops "slru.protected" ~tag:1 in
  (* a tracked block's [policy_slot] is its segment's tag *)
  let access b =
    match b.Block.policy_slot with
    | 0 ->
      (* promote; demote the protected tail if over capacity *)
      probation.o_forget b;
      protected_.o_insert b;
      if protected_.o_count () > protected_capacity then begin
        match protected_.o_victim () with
        | Some demoted -> probation.o_insert demoted
        | None -> ()
      end
    | 1 -> protected_.o_access b
    | _ -> ()
  in
  let forget b =
    probation.o_forget b;
    protected_.o_forget b
  in
  let victim () =
    match probation.o_victim () with
    | Some b -> Some b
    | None -> protected_.o_victim ()
  in
  {
    o_name = "slru";
    o_insert = probation.o_insert;
    o_access = access;
    o_forget = forget;
    o_victim = victim;
    o_count = (fun () -> probation.o_count () + protected_.o_count ());
  }

(* Per-key access history as a fixed-size ring of the k most recent
   times — O(1) note and k-th-age lookup, no list rebuilt per access. *)
type lru_k_hist = { times : float array; mutable h_n : int; mutable head : int }

let lru_k ~k =
  if k < 1 then invalid_arg "Replacement.lru_k: k < 1";
  let pool = Pool.create () in
  let history : lru_k_hist Ktbl.t = Ktbl.create 256 in
  let note b =
    let h =
      match Ktbl.find_opt history b.Block.key with
      | Some h -> h
      | None ->
        let h = { times = Array.make k neg_infinity; h_n = 0; head = k - 1 } in
        Ktbl.replace history b.Block.key h;
        h
    in
    h.head <- (h.head + 1) mod k;
    h.times.(h.head) <- b.Block.times.Block.last_access;
    if h.h_n < k then h.h_n <- h.h_n + 1
  in
  let kth_age b =
    match Ktbl.find_opt history b.Block.key with
    | Some h when h.h_n >= k ->
      (* k-th most recent = the oldest retained entry *)
      h.times.((h.head + 1) mod k)
    | Some _ | None -> neg_infinity (* young history: preferred victim *)
  in
  let victim () =
    match Pool.min_by pool kth_age with
    | Some b ->
      Pool.remove pool b;
      Ktbl.remove history b.Block.key;
      Some b
    | None -> None
  in
  {
    o_name = Printf.sprintf "lru-%d" k;
    o_insert =
      (fun b ->
        Pool.add pool b;
        note b);
    o_access = note;
    o_forget =
      (fun b ->
        Pool.remove pool b;
        Ktbl.remove history b.Block.key);
    o_victim = victim;
    o_count = (fun () -> pool.Pool.len);
  }

let known_policies = [ "lru"; "random"; "lfu"; "slru"; "lru-2" ]

let by_name ?(seed = 17) ?(capacity = 1024) = function
  | "lru" -> lru ()
  | "random" -> random ~seed
  | "lfu" -> lfu ()
  | "slru" -> slru ~protected_capacity:(Stdlib.max 1 (capacity / 2))
  | "lru-2" -> lru_k ~k:2
  | s -> invalid_arg ("Replacement.by_name: unknown policy " ^ s)
