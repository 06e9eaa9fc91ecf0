(* Tests for the cooperative scheduler: virtual time, events, sync,
   mailboxes, deadlock detection, dispatch policies. *)

open Capfs_sched

let vsched ?policy () = Sched.create ?policy ~clock:`Virtual ()

let test_spawn_and_run () =
  let s = vsched () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    ignore (Sched.spawn s (fun () -> incr hits))
  done;
  Sched.run s;
  Alcotest.(check int) "all threads ran" 5 !hits

let test_virtual_time_advances () =
  let s = vsched () in
  let seen = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 10.;
         seen := ("a", Sched.now s) :: !seen));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 5.;
         seen := ("b", Sched.now s) :: !seen));
  Sched.run s;
  (match List.rev !seen with
  | [ ("b", t1); ("a", t2) ] ->
    Alcotest.(check (float 1e-9)) "b at 5" 5. t1;
    Alcotest.(check (float 1e-9)) "a at 10" 10. t2
  | _ -> Alcotest.fail "wrong wake order");
  Alcotest.(check (float 1e-9)) "time rests at last event" 10. (Sched.now s)

let test_virtual_time_costs_nothing_wallclock () =
  let s = vsched () in
  ignore (Sched.spawn s (fun () -> Sched.sleep s 86_400.));
  let t0 = Unix.gettimeofday () in
  Sched.run s;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 1. then Alcotest.failf "simulated day took %.2fs real" elapsed;
  Alcotest.(check (float 1e-6)) "a day passed" 86_400. (Sched.now s)

let test_nested_sleeps_ordering () =
  let s = vsched () in
  let order = Buffer.create 16 in
  ignore
    (Sched.spawn s (fun () ->
         Buffer.add_char order 'a';
         Sched.sleep s 1.;
         Buffer.add_char order 'c';
         Sched.sleep s 2.;
         Buffer.add_char order 'e'));
  ignore
    (Sched.spawn s (fun () ->
         Buffer.add_char order 'b';
         Sched.sleep s 2.;
         Buffer.add_char order 'd';
         Sched.sleep s 2.;
         Buffer.add_char order 'f'));
  Sched.run s;
  (* a/b order depends on dispatch policy, but the timed waves are fixed *)
  let str = Buffer.contents order in
  let wave1 = String.sub str 0 2 and rest = String.sub str 2 4 in
  if not (wave1 = "ab" || wave1 = "ba") then
    Alcotest.failf "first wave %S" wave1;
  Alcotest.(check string) "timed waves" "cdef" rest

let test_event_signal_wakes () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let woken_at = ref (-1.) in
  ignore
    (Sched.spawn s (fun () ->
         Sched.await s ev;
         woken_at := Sched.now s));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 3.;
         Sched.signal s ev));
  Sched.run s;
  Alcotest.(check (float 1e-9)) "woken when signalled" 3. !woken_at

let test_event_pending_signal_not_lost () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let ok = ref false in
  ignore
    (Sched.spawn s (fun () ->
         Sched.signal s ev;
         (* signal before any waiter: must be remembered *)
         Sched.sleep s 1.));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 5.;
         Sched.await s ev;
         ok := true));
  Sched.run s;
  Alcotest.(check bool) "pending signal consumed" true !ok

let test_event_signal_wakes_exactly_one () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn s ~daemon:true (fun () ->
           Sched.await s ev;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 1.;
         Sched.signal s ev;
         Sched.sleep s 1.));
  Sched.run s;
  Alcotest.(check int) "one waiter woken" 1 !woken

let test_broadcast_wakes_all () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn s (fun () ->
           Sched.await s ev;
           incr woken))
  done;
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 1.;
         Alcotest.(check int) "waiters" 3 (Sched.waiters s ev);
         Sched.broadcast s ev));
  Sched.run s;
  Alcotest.(check int) "all woken" 3 !woken

let test_await_timeout_expires () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let got = ref true in
  ignore (Sched.spawn s (fun () -> got := Sched.await_timeout s ev 2.));
  Sched.run s;
  Alcotest.(check bool) "timed out" false !got;
  Alcotest.(check (float 1e-9)) "took 2s virtual" 2. (Sched.now s)

let test_await_timeout_signalled () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let got = ref false in
  ignore (Sched.spawn s (fun () -> got := Sched.await_timeout s ev 10.));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 1.;
         Sched.signal s ev));
  Sched.run s;
  Alcotest.(check bool) "signalled" true !got;
  Alcotest.(check (float 1e-9)) "no spurious wait" 1. (Sched.now s)

let test_deadlock_detected () =
  let s = vsched () in
  let ev = Sched.new_event s in
  ignore (Sched.spawn s ~name:"stuck" (fun () -> Sched.await s ev));
  match Sched.run s with
  | () -> Alcotest.fail "expected deadlock"
  | exception Sched.Deadlock names ->
    Alcotest.(check (list string)) "blocked thread named" [ "stuck" ] names

let test_daemons_do_not_block_exit () =
  let s = vsched () in
  let ticks = ref 0 in
  ignore
    (Sched.spawn s ~daemon:true ~name:"update-30s" (fun () ->
         while true do
           Sched.sleep s 30.;
           incr ticks
         done));
  ignore (Sched.spawn s (fun () -> Sched.sleep s 95.));
  Sched.run s;
  Alcotest.(check int) "daemon ticked thrice" 3 !ticks

let test_lone_daemon_sleep_parks () =
  (* Regression: once every non-daemon fibre has finished, a daemon's
     virtual-clock sleep must actually suspend it so [run] can observe
     that no non-daemon work remains and return. The solo fast path
     used to complete the sleep in place for the lone daemon, spinning
     its service loop forever (a Pfs periodic flusher outliving the
     boot fibre livelocked exactly this way). Fifo dispatch makes the
     non-daemon finish first, so the daemon's sleep happens alone. *)
  let s = vsched ~policy:`Fifo () in
  let ticks = ref 0 in
  ignore (Sched.spawn s ~name:"boot" (fun () -> ()));
  ignore
    (Sched.spawn s ~daemon:true ~name:"flusher" (fun () ->
         while true do
           Sched.sleep s 5.;
           incr ticks
         done));
  Sched.run s;
  Alcotest.(check int) "lone daemon parked, not spun" 0 !ticks

let test_run_until_horizon () =
  let s = vsched () in
  let late = ref false in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 1000.;
         late := true));
  Sched.run ~until:10. s;
  Alcotest.(check bool) "beyond-horizon work not run" false !late;
  Alcotest.(check (float 1e-9)) "clock parked at horizon" 10. (Sched.now s)

let test_exception_propagates () =
  let s = vsched () in
  ignore (Sched.spawn s (fun () -> failwith "boom"));
  ignore (Sched.spawn s (fun () -> Sched.sleep s 1.));
  match Sched.run s with
  | () -> Alcotest.fail "expected failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_fifo_policy_order () =
  let s = vsched ~policy:`Fifo () in
  let order = Buffer.create 4 in
  ignore (Sched.spawn s (fun () -> Buffer.add_char order 'a'));
  ignore (Sched.spawn s (fun () -> Buffer.add_char order 'b'));
  ignore (Sched.spawn s (fun () -> Buffer.add_char order 'c'));
  Sched.run s;
  Alcotest.(check string) "fifo order" "abc" (Buffer.contents order)

let test_fifo_ring_wraparound () =
  (* Many fibres yielding repeatedly force the run queue's circular
     buffer to wrap its head pointer many times past the physical end;
     FIFO round-robin order must survive every wrap. *)
  let fibres = 13 and rounds = 7 in
  let s = vsched ~policy:`Fifo () in
  let order = ref [] in
  for i = 0 to fibres - 1 do
    ignore
      (Sched.spawn s (fun () ->
           for _ = 1 to rounds do
             order := i :: !order;
             Sched.yield s
           done))
  done;
  Sched.run s;
  let got = List.rev !order in
  let expected =
    List.concat_map
      (fun _ -> List.init fibres (fun i -> i))
      (List.init rounds (fun r -> r))
  in
  Alcotest.(check (list int)) "round-robin across wraps" expected got

let test_random_policy_deterministic_by_seed () =
  let trace seed =
    let s = Sched.create ~seed ~clock:`Virtual () in
    let order = Buffer.create 16 in
    for i = 0 to 9 do
      ignore
        (Sched.spawn s (fun () ->
             Buffer.add_char order (Char.chr (Char.code '0' + i))))
    done;
    Sched.run s;
    Buffer.contents order
  in
  Alcotest.(check string) "same seed, same schedule" (trace 11) (trace 11);
  if trace 11 = trace 12 && trace 12 = trace 13 then
    Alcotest.fail "different seeds should shuffle dispatch"

let test_real_clock_sleeps () =
  let s = Sched.create ~clock:`Real () in
  let t0 = Unix.gettimeofday () in
  ignore (Sched.spawn s (fun () -> Sched.sleep s 0.05));
  Sched.run s;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed < 0.045 then Alcotest.failf "slept only %.3fs" elapsed;
  if Sched.now s < 0.045 then Alcotest.fail "now must reflect elapsed time"

let test_wait_readable_real_pipe () =
  let s = Sched.create ~clock:`Real () in
  let r, w = Unix.pipe () in
  let got = ref "" in
  ignore
    (Sched.spawn s ~name:"reader" (fun () ->
         Sched.wait_readable s r;
         let buf = Bytes.create 16 in
         let n = Unix.read r buf 0 16 in
         got := Bytes.sub_string buf 0 n));
  ignore
    (Sched.spawn s ~name:"writer" (fun () ->
         Sched.sleep s 0.02;
         ignore (Unix.write_substring w "ping" 0 4)));
  Sched.run s;
  Unix.close r;
  Unix.close w;
  Alcotest.(check string) "read external event" "ping" !got

let test_wait_readable_rejected_in_virtual () =
  let s = vsched () in
  let r, w = Unix.pipe () in
  let rejected = ref false in
  ignore
    (Sched.spawn s (fun () ->
         try Sched.wait_readable s r
         with Invalid_argument _ -> rejected := true));
  Sched.run s;
  Unix.close r;
  Unix.close w;
  Alcotest.(check bool) "virtual clock refuses fds" true !rejected

let test_stop_interrupts_run () =
  let s = vsched () in
  let reached = ref 0 in
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 1.;
         incr reached;
         Sched.stop s;
         Sched.sleep s 1.;
         (* Stopped is raised by the next blocking call *)
         incr reached));
  (match Sched.run s with
  | () -> ()
  | exception Capfs_sched.Sched.Stopped -> ());
  Alcotest.(check int) "stopped before the second sleep" 1 !reached

let test_signal_after_timeout_not_double_waking () =
  let s = vsched () in
  let ev = Sched.new_event s in
  let wakes = ref 0 in
  ignore
    (Sched.spawn s (fun () ->
         if not (Sched.await_timeout s ev 1.) then incr wakes;
         (* the late signal must not resurrect the timed-out waiter;
            it becomes pending for the NEXT await *)
         Sched.sleep s 5.;
         Sched.await s ev;
         incr wakes));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 2.;
         Sched.signal s ev));
  Sched.run s;
  Alcotest.(check int) "timeout then pending-signal consumption" 2 !wakes

let test_many_fibres_scale () =
  let s = vsched () in
  let total = ref 0 in
  for i = 1 to 2000 do
    ignore
      (Sched.spawn s (fun () ->
           Sched.sleep s (float_of_int (i mod 17) /. 100.);
           incr total))
  done;
  Sched.run s;
  Alcotest.(check int) "2000 fibres" 2000 !total

(* Sync primitives *)

let test_mutex_excludes () =
  let s = vsched () in
  let m = Sync.Mutex.create s in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sched.spawn s (fun () ->
           Sync.Mutex.with_lock m (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sched.sleep s 1.;
               decr inside)))
  done;
  Sched.run s;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check (float 1e-9)) "serialized" 4. (Sched.now s)

let test_mutex_trylock () =
  let s = vsched () in
  let m = Sync.Mutex.create s in
  ignore
    (Sched.spawn s (fun () ->
         Alcotest.(check bool) "first succeeds" true (Sync.Mutex.try_lock m);
         Alcotest.(check bool) "second fails" false (Sync.Mutex.try_lock m);
         Sync.Mutex.unlock m;
         Alcotest.(check bool) "free again" true (Sync.Mutex.try_lock m);
         Sync.Mutex.unlock m));
  Sched.run s

let test_unlock_unlocked_raises () =
  let s = vsched () in
  let m = Sync.Mutex.create s in
  let raised = ref false in
  ignore
    (Sched.spawn s (fun () ->
         try Sync.Mutex.unlock m with Invalid_argument _ -> raised := true));
  Sched.run s;
  Alcotest.(check bool) "raises" true !raised

let test_semaphore_capacity () =
  let s = vsched () in
  let sem = Sync.Semaphore.create s ~capacity:2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Sched.spawn s (fun () ->
           Sync.Semaphore.with_permit sem (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               Sched.sleep s 1.;
               decr inside)))
  done;
  Sched.run s;
  Alcotest.(check int) "at most 2 inside" 2 !max_inside;
  Alcotest.(check (float 1e-9)) "three waves" 3. (Sched.now s)

let test_condition_wait_signal () =
  let s = vsched () in
  let m = Sync.Mutex.create s in
  let c = Sync.Condition.create s in
  let ready = ref false and observed = ref false in
  ignore
    (Sched.spawn s (fun () ->
         Sync.Mutex.lock m;
         while not !ready do
           Sync.Condition.wait c m
         done;
         observed := true;
         Sync.Mutex.unlock m));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 2.;
         Sync.Mutex.lock m;
         ready := true;
         Sync.Condition.signal c;
         Sync.Mutex.unlock m));
  Sched.run s;
  Alcotest.(check bool) "condition observed" true !observed

(* Mailbox *)

let test_mailbox_fifo () =
  let s = vsched ~policy:`Fifo () in
  let mb = Mailbox.create s in
  let got = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         for i = 1 to 3 do
           Mailbox.send mb i
         done));
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 3 do
           got := Mailbox.recv mb :: !got
         done));
  Sched.run s;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let s = vsched () in
  let mb = Mailbox.create s in
  let got = ref 0 and at = ref 0. in
  ignore
    (Sched.spawn s (fun () ->
         got := Mailbox.recv mb;
         at := Sched.now s));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 7.;
         Mailbox.send mb 99));
  Sched.run s;
  Alcotest.(check int) "value" 99 !got;
  Alcotest.(check (float 1e-9)) "blocked until send" 7. !at

let test_mailbox_capacity_backpressure () =
  let s = vsched () in
  let mb = Mailbox.create ~capacity:1 s in
  let sent_second_at = ref 0. in
  ignore
    (Sched.spawn s (fun () ->
         Mailbox.send mb 1;
         Mailbox.send mb 2;
         sent_second_at := Sched.now s));
  ignore
    (Sched.spawn s (fun () ->
         Sched.sleep s 5.;
         ignore (Mailbox.recv mb);
         ignore (Mailbox.recv mb)));
  Sched.run s;
  Alcotest.(check (float 1e-9)) "producer blocked until drain" 5.
    !sent_second_at

let test_mailbox_recv_timeout () =
  let s = vsched () in
  let mb : int Mailbox.t = Mailbox.create s in
  let got = ref (Some 1) in
  ignore (Sched.spawn s (fun () -> got := Mailbox.recv_timeout mb 3.));
  Sched.run s;
  Alcotest.(check bool) "timed out" true (!got = None);
  Alcotest.(check (float 1e-9)) "3s passed" 3. (Sched.now s)

let test_mailbox_try_ops () =
  let s = vsched () in
  let mb = Mailbox.create ~capacity:1 s in
  ignore
    (Sched.spawn s (fun () ->
         Alcotest.(check bool) "send ok" true (Mailbox.try_send mb 1);
         Alcotest.(check bool) "full" false (Mailbox.try_send mb 2);
         Alcotest.(check bool) "recv" true (Mailbox.try_recv mb = Some 1);
         Alcotest.(check bool) "empty" true (Mailbox.try_recv mb = None)));
  Sched.run s

(* Timer heap *)

let drain q =
  let rec go acc = if Heap.is_empty q then List.rev acc else go (Heap.pop q :: acc) in
  go []

let test_heap_sorts () =
  let q = Heap.create () in
  List.iteri
    (fun seq at -> Heap.push q ~at:(float_of_int at) ~seq (at, seq))
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list (pair int int)))
    "sorted by (at, seq)"
    [ (1, 1); (1, 3); (2, 6); (3, 4); (4, 2); (5, 0); (9, 5) ]
    (drain q);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Heap.pop: empty") (fun () -> ignore (Heap.pop q))

let prop_heap_pop_monotone =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Heap.create () in
      List.iteri (fun seq x -> Heap.push q ~at:(float_of_int x) ~seq (x, seq)) xs;
      let rec check prev =
        Heap.is_empty q
        ||
        let x = Heap.pop q in
        compare x prev > 0 && check x
      in
      check (min_int, min_int))

(* Random pushes, pops and peeks against a plain list kept sorted by
   (at, seq). Expiry times come from a handful of values, so most
   comparisons fall through to the sequence number. *)
type tq_op = Push of int | Pop | Peek

let prop_timer_queue_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (5, map (fun at -> Push at) (int_range 0 5)); (3, return Pop); (1, return Peek) ])
  in
  let print = function
    | Push at -> Printf.sprintf "push %d" at
    | Pop -> "pop"
    | Peek -> "peek"
  in
  QCheck.Test.make ~name:"timer queue matches a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print ops))
       QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let q = Heap.create () in
      let model = ref [] and seq = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Push at ->
            incr seq;
            let at = float_of_int at /. 4. in
            Heap.push q ~at ~seq:!seq !seq;
            model := List.sort compare ((at, !seq) :: !model);
            true
          | Pop -> (
            match !model with
            | [] -> Heap.is_empty q
            | (_, s) :: rest ->
              model := rest;
              Heap.pop q = s)
          | Peek -> (
            match !model with
            | [] -> Heap.is_empty q
            | (at, _) :: _ -> Heap.top_at q = at))
          && Heap.length q = List.length !model)
        ops)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heap_pop_monotone; prop_timer_queue_model ]

let suite =
  [
    Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
    Alcotest.test_case "virtual time advances" `Quick
      test_virtual_time_advances;
    Alcotest.test_case "virtual day costs no wall-clock" `Quick
      test_virtual_time_costs_nothing_wallclock;
    Alcotest.test_case "nested sleeps ordering" `Quick
      test_nested_sleeps_ordering;
    Alcotest.test_case "event signal wakes" `Quick test_event_signal_wakes;
    Alcotest.test_case "pending signal not lost" `Quick
      test_event_pending_signal_not_lost;
    Alcotest.test_case "signal wakes exactly one" `Quick
      test_event_signal_wakes_exactly_one;
    Alcotest.test_case "broadcast wakes all" `Quick test_broadcast_wakes_all;
    Alcotest.test_case "await timeout expires" `Quick test_await_timeout_expires;
    Alcotest.test_case "await timeout signalled" `Quick
      test_await_timeout_signalled;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "daemons do not block exit" `Quick
      test_daemons_do_not_block_exit;
    Alcotest.test_case "lone daemon sleep parks" `Quick
      test_lone_daemon_sleep_parks;
    Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "fifo policy order" `Quick test_fifo_policy_order;
    Alcotest.test_case "fifo ring wraparound" `Quick test_fifo_ring_wraparound;
    Alcotest.test_case "random policy deterministic" `Quick
      test_random_policy_deterministic_by_seed;
    Alcotest.test_case "real clock sleeps" `Quick test_real_clock_sleeps;
    Alcotest.test_case "wait_readable on a pipe" `Quick
      test_wait_readable_real_pipe;
    Alcotest.test_case "wait_readable rejected in virtual" `Quick
      test_wait_readable_rejected_in_virtual;
    Alcotest.test_case "stop interrupts run" `Quick test_stop_interrupts_run;
    Alcotest.test_case "signal after timeout" `Quick
      test_signal_after_timeout_not_double_waking;
    Alcotest.test_case "2000 fibres" `Quick test_many_fibres_scale;
    Alcotest.test_case "mutex excludes" `Quick test_mutex_excludes;
    Alcotest.test_case "mutex trylock" `Quick test_mutex_trylock;
    Alcotest.test_case "unlock unlocked raises" `Quick
      test_unlock_unlocked_raises;
    Alcotest.test_case "semaphore capacity" `Quick test_semaphore_capacity;
    Alcotest.test_case "condition wait/signal" `Quick
      test_condition_wait_signal;
    Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox blocking recv" `Quick
      test_mailbox_blocking_recv;
    Alcotest.test_case "mailbox capacity backpressure" `Quick
      test_mailbox_capacity_backpressure;
    Alcotest.test_case "mailbox recv timeout" `Quick test_mailbox_recv_timeout;
    Alcotest.test_case "mailbox try ops" `Quick test_mailbox_try_ops;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
  ]
  @ qsuite
