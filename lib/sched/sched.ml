let src = Logs.Src.create "capfs.sched" ~doc:"cut-and-paste thread scheduler"

module Log = (val Logs.src_log src : Logs.LOG)
module Tracer = Capfs_obs.Tracer
module Ev = Capfs_obs.Event

type clock = [ `Virtual | `Real ]
type policy = [ `Random | `Fifo ]
type thread_id = int

exception Deadlock of string list
exception Stopped

let () =
  Printexc.register_printer (function
    | Deadlock names ->
      Some
        (Printf.sprintf "Sched.Deadlock: blocked non-daemon fibres: [%s]"
           (String.concat "; " names))
    | _ -> None)

type thread = {
  tid : thread_id;
  name : string;
  daemon : bool;
}

(* Runnables and timers carry suspended fibres directly: the hot
   suspension paths (sleep, await, yield) park the effect continuation
   itself instead of wrapping it in a chain of closures. The [Run]/
   [A_fun]/[W_fun] arms remain for spawn and the general [Suspend]
   effect. Dispatch of every variant follows the exact sequence the
   closure-based code had (Block, then Wake at resume time, then a
   run-queue push), so scheduling order — and with it every PRNG-driven
   simulation outcome — is bit-for-bit unchanged. *)
type runnable =
  | Run of { thread : thread; thunk : unit -> unit }
  | Cont of {
      thread : thread;
      k : (unit, unit) Effect.Deep.continuation;
    }
  | Cont_bool of {
      thread : thread;
      k : (bool, unit) Effect.Deep.continuation;
      v : bool;
    }

let runnable_thread = function
  | Run { thread; _ } | Cont { thread; _ } | Cont_bool { thread; _ } -> thread

type timer_action =
  | A_fun of (unit -> unit)
  | A_cont of { thread : thread; k : (unit, unit) Effect.Deep.continuation }

type waiter_wake =
  | W_fun of (bool -> unit) (* true = signalled, false = timed out *)
  | W_cont of (bool, unit) Effect.Deep.continuation

type waiter = {
  wthread : thread;
  mutable active : bool;
  wake : waiter_wake;
}

type event = {
  ename : string;
  mutable pending : int;
  queue : waiter Queue.t;
}

type fd_waiter = { fd : Unix.file_descr; fresume : unit -> unit }

type t = {
  clk : clock;
  policy : policy;
  rng : Capfs_stats.Prng.t;
  tracer : Tracer.t;
  injector : Capfs_fault.Injector.t;
  (* a [float ref] rather than a mutable field: this record is mixed,
     so a float field would box on every store — and the virtual clock
     advances on every timer fire and every solo fast-path sleep *)
  vnow : float ref;
  mutable epoch : float; (* wall-clock at run start, `Real only *)
  (* circular buffer: logical slot i lives at (runq_head + i) mod cap *)
  mutable runq : runnable array;
  mutable runq_head : int;
  mutable runq_len : int;
  timers : timer_action Heap.t; (* keyed on (expiry, timer_seq) *)
  mutable timer_seq : int;
  mutable next_tid : int;
  live : (thread_id, thread) Hashtbl.t;
  mutable nondaemon : int; (* live non-daemon fibres, kept with [live] *)
  mutable fd_waiters : fd_waiter list;
  mutable current : thread option;
  mutable running : bool;
  mutable stopping : bool;
  mutable horizon : float; (* active [run ~until] bound, else infinity *)
  mutable failure : exn option;
}

let create ?(seed = 42) ?(policy = `Random) ?(tracer = Tracer.null)
    ?(injector = Capfs_fault.Injector.null) ~clock () =
  {
    clk = clock;
    policy;
    rng = Capfs_stats.Prng.create ~seed;
    tracer;
    injector;
    vnow = ref 0.;
    epoch = 0.;
    runq = [||];
    runq_head = 0;
    runq_len = 0;
    timers = Heap.create ();
    timer_seq = 0;
    next_tid = 1;
    live = Hashtbl.create 64;
    nondaemon = 0;
    fd_waiters = [];
    current = None;
    running = false;
    stopping = false;
    horizon = infinity;
    failure = None;
  }

let clock t = t.clk
let tracer t = t.tracer
let injector t = t.injector

let now t =
  match t.clk with
  | `Virtual -> !(t.vnow)
  | `Real -> if t.running then Unix.gettimeofday () -. t.epoch else !(t.vnow)

let push_run t r =
  let cap = Array.length t.runq in
  if t.runq_len = cap then begin
    (* grow, unwrapping so logical slot 0 lands at physical 0 *)
    let grown = Array.make (Stdlib.max 8 (2 * cap)) r in
    for i = 0 to t.runq_len - 1 do
      grown.(i) <- t.runq.((t.runq_head + i) mod cap)
    done;
    t.runq <- grown;
    t.runq_head <- 0
  end;
  let cap = Array.length t.runq in
  t.runq.((t.runq_head + t.runq_len) mod cap) <- r;
  t.runq_len <- t.runq_len + 1

(* Both policies evolve the {e logical} queue exactly as the previous
   flat-array code did — Fifo pops the front (now a head bump instead of
   an O(n) shift), Random swap-removes logical slot [i] with the logical
   last — so the dispatch order, and with it every PRNG-driven
   simulation outcome, is bit-for-bit unchanged. *)
let pop_run t =
  if t.runq_len = 0 then None
  else begin
    let cap = Array.length t.runq in
    let i =
      match t.policy with
      | `Fifo -> 0
      | `Random -> Capfs_stats.Prng.int t.rng t.runq_len
    in
    let phys = (t.runq_head + i) mod cap in
    let r = t.runq.(phys) in
    (match t.policy with
    | `Fifo -> t.runq_head <- (t.runq_head + 1) mod cap
    | `Random ->
      t.runq.(phys) <- t.runq.((t.runq_head + t.runq_len - 1) mod cap));
    t.runq_len <- t.runq_len - 1;
    Some r
  end

let add_timer t ~at action =
  t.timer_seq <- t.timer_seq + 1;
  Heap.push t.timers ~at ~seq:t.timer_seq (A_fun action)

let add_timer_cont t ~at thread k =
  t.timer_seq <- t.timer_seq + 1;
  Heap.push t.timers ~at ~seq:t.timer_seq (A_cont { thread; k })

(* The general suspension effect: the performer hands the handler a
   registration function that receives the resume callback. Resuming
   pushes the continuation back on the run queue; it never runs inline.
   The label names what the fibre blocks on, for the event tracer.

   The three specialized effects cover the hot suspensions — they carry
   their operands directly so neither the performer nor the handler
   allocates a registration/resume closure pair. *)
type _ Effect.t +=
  | Suspend : string * (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep_until : float -> unit Effect.t
  | Yield : unit Effect.t
  | Wait : event -> bool Effect.t

let suspend ~on register = Effect.perform (Suspend (on, register))

let check_alive t = if t.stopping then raise Stopped

let finish t thread result =
  Hashtbl.remove t.live thread.tid;
  if not thread.daemon then t.nondaemon <- t.nondaemon - 1;
  match result with
  | None -> ()
  | Some Stopped -> ()
  | Some e ->
    Log.err (fun m ->
        m "thread %S died: %s" thread.name (Printexc.to_string e));
    if t.failure = None then t.failure <- Some e

let trace_block t thread on =
  if Tracer.enabled t.tracer then
    Tracer.emit t.tracer ~time:(now t)
      (Ev.Block { tid = thread.tid; thread = thread.name; on })

let trace_wake t thread =
  if Tracer.enabled t.tracer then
    Tracer.emit t.tracer ~time:(now t)
      (Ev.Wake { tid = thread.tid; thread = thread.name })

let start t thread f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> finish t thread None);
      exnc = (fun e -> finish t thread (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (on, register) ->
            Some
              (fun (k : (a, _) continuation) ->
                trace_block t thread on;
                register (fun v ->
                    trace_wake t thread;
                    push_run t (Run { thread; thunk = (fun () -> continue k v) })))
          | Sleep_until at ->
            Some
              (fun (k : (a, _) continuation) ->
                trace_block t thread "timer";
                add_timer_cont t ~at thread k)
          | Yield ->
            Some
              (fun (k : (a, _) continuation) ->
                trace_block t thread "yield";
                trace_wake t thread;
                push_run t (Cont { thread; k }))
          | Wait ev ->
            Some
              (fun (k : (a, _) continuation) ->
                trace_block t thread ev.ename;
                Queue.push
                  { wthread = thread; active = true; wake = W_cont k }
                  ev.queue)
          | _ -> None);
    }

let spawn ?name ?(daemon = false) t f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" tid in
  let thread = { tid; name; daemon } in
  Hashtbl.replace t.live tid thread;
  if not daemon then t.nondaemon <- t.nondaemon + 1;
  push_run t (Run { thread; thunk = (fun () -> start t thread f) });
  tid

(* {2 The solo fast path}

   When a fibre suspends while the run queue is empty, the scheduler's
   next steps are forced: [pop_run] finds nothing, the idle loop fires
   the fibre's own timer (or, for a yield, pops it right back), and the
   fibre resumes — after one PRNG draw over a one-element queue. Both
   yield and a short sleep can therefore complete {e in place}: advance
   the virtual clock, burn the draw [pop_run] would have made, and
   return, skipping the effect suspension entirely (a perform + timer +
   continuation costs ~50 words of minor heap, and replay suspends
   several times per replayed operation — pacing, cache copy delays,
   disk positioning).

   Bit-for-bit equivalence is the contract. The fast path is taken only
   when every observable the slow path touches evolves identically:
   - virtual clock only (a real clock must actually sleep);
   - the run queue is empty (nothing else could have been dispatched);
   - no timer due at or before the wake-up time (an earlier — or
     equal-time, by seq order — timer could ready other fibres first);
   - inside [run ~until], the wake-up lies within the horizon (the
     slow path would park the fibre and stop the clock at the bound);
   - the tracer is off (the slow path emits Block/Wake/Dispatch events).
   The PRNG draw is replicated exactly: [`Random] dispatch consumes one
   [Prng.int] per pop even for a one-element queue, so skipping the
   queue must still burn that draw or every later random decision
   shifts. Timer seq numbers need no compensation — they only break
   ties among timers that actually coexist in the heap, and their
   relative order is unchanged. *)

let burn_solo_pop_draw t =
  match t.policy with
  | `Random -> ignore (Capfs_stats.Prng.int t.rng 1 : int)
  | `Fifo -> ()

let solo_wake_at t ~at =
  t.clk = `Virtual && t.running && t.runq_len = 0
  && (not (Tracer.enabled t.tracer))
  && at <= t.horizon
  && (Heap.is_empty t.timers || Heap.top_at t.timers > at)
  (* A lone daemon (say a periodic flusher whose service loop outlived
     every non-daemon fibre) must take the slow path: parked on its
     timer, [idle] sees no non-daemon work and [run] returns. Waking it
     in place would spin its service loop forever and never hand the
     scheduler back. *)
  && (match t.current with
     | Some th when th.daemon -> t.nondaemon > 0
     | Some _ | None -> true)

let yield t =
  check_alive t;
  if
    t.clk = `Virtual && t.running && t.runq_len = 0
    && not (Tracer.enabled t.tracer)
  then
    (* the slow path pushes this fibre back and pops it again without
       firing timers or advancing the clock *)
    burn_solo_pop_draw t
  else Effect.perform Yield

let sleep t dt =
  check_alive t;
  if dt <= 0. then yield t
  else begin
    let at = now t +. dt in
    if solo_wake_at t ~at then begin
      if at > !(t.vnow) then t.vnow := at;
      burn_solo_pop_draw t
    end
    else Effect.perform (Sleep_until at)
  end

let new_event ?(name = "event") _t =
  { ename = name; pending = 0; queue = Queue.create () }

let current_thread t =
  match t.current with
  | Some th -> th
  | None -> { tid = 0; name = "<main>"; daemon = false }

let await t ev =
  check_alive t;
  if ev.pending > 0 then ev.pending <- ev.pending - 1
  else ignore (Effect.perform (Wait ev) : bool)

let await_timeout t ev dt =
  check_alive t;
  if ev.pending > 0 then begin
    ev.pending <- ev.pending - 1;
    true
  end
  else begin
    let th = current_thread t in
    let at = now t +. dt in
    suspend ~on:ev.ename (fun resume ->
        let w = { wthread = th; active = true; wake = W_fun resume } in
        Queue.push w ev.queue;
        add_timer t ~at (fun () ->
            if w.active then begin
              w.active <- false;
              match w.wake with
              | W_fun f -> f false
              | W_cont _ -> assert false (* timeouts only pair with W_fun *)
            end))
  end

let wake_waiter t (w : waiter) v =
  match w.wake with
  | W_fun f -> f v
  | W_cont k ->
    trace_wake t w.wthread;
    push_run t (Cont_bool { thread = w.wthread; k; v })

let rec wake_one t ev =
  match Queue.take_opt ev.queue with
  | None -> false
  | Some w ->
    if w.active then begin
      w.active <- false;
      wake_waiter t w true;
      true
    end
    else wake_one t ev

let signal t ev = if not (wake_one t ev) then ev.pending <- ev.pending + 1
let broadcast t ev = while wake_one t ev do () done

let waiters _t ev =
  Queue.fold (fun n w -> if w.active then n + 1 else n) 0 ev.queue

let wait_readable t fd =
  (match t.clk with
  | `Virtual ->
    invalid_arg "Sched.wait_readable: external events need a `Real clock"
  | `Real -> ());
  check_alive t;
  suspend ~on:"fd" (fun resume ->
      t.fd_waiters <- { fd; fresume = resume } :: t.fd_waiters)

let live_names t =
  Hashtbl.fold
    (fun _ th acc ->
      if th.daemon then ("*" ^ th.name) :: acc else th.name :: acc)
    t.live []
  |> List.sort compare

let stop t = t.stopping <- true

(* Fire every timer due at or before [horizon]. Virtual mode advances the
   clock to each timer's expiry; real mode has already slept past it. *)
let fire_due t horizon =
  let rec go () =
    if
      (not (Heap.is_empty t.timers))
      && Heap.top_at t.timers <= horizon
    then begin
      let at = Heap.top_at t.timers in
      let action = Heap.pop t.timers in
      if t.clk = `Virtual && at > !(t.vnow) then t.vnow := at;
      (match action with
      | A_fun f -> f ()
      | A_cont { thread; k } ->
        trace_wake t thread;
        push_run t (Cont { thread; k }));
      go ()
    end
  in
  go ()

module Fd_set = Set.Make (struct
  type t = Unix.file_descr

  let compare = Stdlib.compare
end)

let select_real t timeout =
  let fds = List.map (fun w -> w.fd) t.fd_waiters in
  match Unix.select fds [] [] timeout with
  | ready, _, _ ->
    (* set membership, not [List.mem] per waiter: n waiters on n ready
       descriptors is O(n log n), not O(n²) *)
    let ready = Fd_set.of_list ready in
    let woken, still =
      List.partition (fun w -> Fd_set.mem w.fd ready) t.fd_waiters
    in
    t.fd_waiters <- still;
    List.iter (fun w -> w.fresume ()) woken
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run ?until t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  t.stopping <- false;
  t.failure <- None;
  t.epoch <- Unix.gettimeofday () -. !(t.vnow);
  t.horizon <- (match until with Some u -> u | None -> infinity);
  let horizon = until in
  let past_horizon at =
    match horizon with Some u -> at > u | None -> false
  in
  let rec loop () =
    if t.stopping then ()
    else
      match pop_run t with
      | Some r ->
        let thread = runnable_thread r in
        if Tracer.enabled t.tracer then
          Tracer.emit t.tracer ~time:(now t)
            (Ev.Dispatch { tid = thread.tid; thread = thread.name });
        t.current <- Some thread;
        (match r with
        | Run { thunk; _ } -> thunk ()
        | Cont { k; _ } -> Effect.Deep.continue k ()
        | Cont_bool { k; v; _ } -> Effect.Deep.continue k v);
        t.current <- None;
        loop ()
      | None -> idle ()
  and idle () =
    if t.nondaemon = 0 then ()
      (* Only daemons (service loops, periodic flushers) remain: their
         timers and fds must not keep the system alive. *)
    else if not (Heap.is_empty t.timers) then begin
      let at = Heap.top_at t.timers in
      if not (past_horizon at) then begin
        (match t.clk with
        | `Virtual -> ()
        | `Real ->
          let delay = at -. now t in
          if delay > 0. then select_real t delay);
        fire_due t (match t.clk with `Virtual -> at | `Real -> now t);
        loop ()
      end
      else
        (* Next event lies beyond the horizon: stop the simulation there. *)
        match horizon with
        | Some u when t.clk = `Virtual && u > !(t.vnow) -> t.vnow := u
        | Some _ | None -> ()
    end
    else if t.fd_waiters <> [] && t.clk = `Real then begin
      select_real t (-1.);
      loop ()
    end
    else begin
      (* A dead helper fibre (e.g. a crashed flusher daemon) usually
         explains why everyone else is stuck: surface its exception
         rather than the symptom. *)
      match t.failure with
      | Some e -> raise e
      | None -> raise (Deadlock (live_names t))
    end
  in
  let cleanup () =
    t.running <- false;
    t.current <- None;
    t.horizon <- infinity;
    if t.clk = `Real then t.vnow := Unix.gettimeofday () -. t.epoch
  in
  (try loop ()
   with e ->
     cleanup ();
     raise e);
  cleanup ();
  match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ()
