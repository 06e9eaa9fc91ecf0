module Sched = Capfs_sched.Sched

type op = Read | Write

type t = {
  id : int;
  op : op;
  lba : int;
  sectors : int;
  mutable data : Data.t option;
  deadline : float option;
  submitted_at : float;
  mutable started_at : float;
  mutable completed_at : float;
  done_ev : Sched.event;
  mutable completed : bool;
  mutable error : Capfs_core.Errno.t option;
  mutable fault_retryable : bool;
  mutable constituents : t list;
}

(* atomic: requests are minted from concurrently running experiment
   domains, and queue removal matches on id *)
let next_id = Atomic.make 1

let make sched op ~lba ~sectors ?deadline ?data () =
  if sectors < 1 then invalid_arg "Iorequest.make: sectors < 1";
  if lba < 0 then invalid_arg "Iorequest.make: negative lba";
  let now = Sched.now sched in
  {
    id = Atomic.fetch_and_add next_id 1;
    op;
    lba;
    sectors;
    data;
    deadline;
    submitted_at = now;
    started_at = now;
    completed_at = now;
    done_ev = Sched.new_event ~name:"iorequest.done" sched;
    completed = false;
    error = None;
    fault_retryable = false;
    constituents = [];
  }

(* A merged (scatter-gather) request completes its constituents the
   instant it completes itself — including the early completion of an
   immediate-report write — so merged waiters observe the same latency
   they would from the physical request, and a failed merged request
   delivers the same typed error to every waiter. *)
let rec complete sched t =
  if not t.completed then begin
    t.completed <- true;
    t.completed_at <- Sched.now sched;
    (match t.constituents with
    | [] -> ()
    | cs ->
      let bps =
        match t.data with
        | Some d when t.sectors > 0 -> Data.length d / t.sectors
        | Some _ | None -> 0
      in
      List.iter
        (fun c ->
          c.started_at <- t.started_at;
          c.fault_retryable <- t.fault_retryable;
          (match t.error with Some e -> c.error <- Some e | None -> ());
          (match (t.op, t.data) with
          | Read, Some d when bps > 0 && c.error = None ->
            c.data <-
              Some
                (Data.sub d ~pos:((c.lba - t.lba) * bps)
                   ~len:(c.sectors * bps))
          | _ -> ());
          complete sched c)
        cs);
    Sched.broadcast sched t.done_ev
  end

let fail sched t err =
  if not t.completed then begin
    t.error <- Some err;
    complete sched t
  end

let await sched t = if not t.completed then Sched.await sched t.done_ev

let await_timeout sched t dt =
  if t.completed then true else Sched.await_timeout sched t.done_ev dt

let wait_time t = t.started_at -. t.submitted_at
let response_time t = t.completed_at -. t.submitted_at
let last_lba t = t.lba + t.sectors

let pp ppf t =
  Format.fprintf ppf "#%d %s lba=%d n=%d" t.id
    (match t.op with Read -> "R" | Write -> "W")
    t.lba t.sectors
