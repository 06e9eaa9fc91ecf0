type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : int; (* id of the list the node is linked on; 0 = unlinked *)
}

type 'a t = {
  id : int;
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable len : int;
}

(* atomic: lists are created from concurrently running experiment
   domains, and owner checks rely on ids being unique *)
let next_id = Atomic.make 1

let create () =
  { id = Atomic.fetch_and_add next_id 1; first = None; last = None; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push_front t v =
  let n = { v; prev = None; next = t.first; owner = t.id } in
  (match t.first with
  | Some f -> f.prev <- Some n
  | None -> t.last <- Some n);
  t.first <- Some n;
  t.len <- t.len + 1;
  n

let push_back t v =
  let n = { v; prev = t.last; next = None; owner = t.id } in
  (match t.last with
  | Some l -> l.next <- Some n
  | None -> t.first <- Some n);
  t.last <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  if n.owner <> t.id then invalid_arg "Dlist.remove: node not on this list";
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.first <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.owner <- 0;
  t.len <- t.len - 1

let relink_front t n =
  n.prev <- None;
  n.next <- t.first;
  n.owner <- t.id;
  (match t.first with
  | Some f -> f.prev <- Some n
  | None -> t.last <- Some n);
  t.first <- Some n;
  t.len <- t.len + 1

let move_front t n =
  remove t n;
  relink_front t n

let front t = Option.map (fun n -> n.v) t.first
let back t = Option.map (fun n -> n.v) t.last

let value n = n.v

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f acc n.v) n.next
  in
  go acc t.first

let iter f t = fold (fun () v -> f v) () t

let find t p =
  let rec go = function
    | None -> None
    | Some n -> if p n.v then Some n.v else go n.next
  in
  go t.first

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

let to_array t =
  match t.first with
  | None -> [||]
  | Some n0 ->
    let arr = Array.make t.len n0.v in
    let rec go i = function
      | None -> ()
      | Some n ->
        arr.(i) <- n.v;
        go (i + 1) n.next
    in
    go 0 t.first;
    arr
