module Mutex = struct
  type t = {
    sched : Sched.t;
    ev : Sched.event;
    mutable held : bool;
  }

  let create ?(name = "mutex") sched =
    { sched; ev = Sched.new_event ~name sched; held = false }

  let rec lock t =
    if not t.held then t.held <- true
    else begin
      Sched.await t.sched t.ev;
      (* Another fibre may have slipped in between wake-up and resume. *)
      lock t
    end

  let try_lock t =
    if t.held then false
    else begin
      t.held <- true;
      true
    end

  let unlock t =
    if not t.held then invalid_arg "Mutex.unlock: not locked";
    t.held <- false;
    Sched.signal t.sched t.ev

  let locked t = t.held

  let with_lock t f =
    lock t;
    match f () with
    | v ->
      unlock t;
      v
    | exception e ->
      unlock t;
      raise e
end

module Semaphore = struct
  type t = {
    sched : Sched.t;
    ev : Sched.event;
    mutable permits : int;
  }

  let create ?(name = "semaphore") sched ~capacity =
    if capacity < 0 then invalid_arg "Semaphore.create: capacity < 0";
    { sched; ev = Sched.new_event ~name sched; permits = capacity }

  let rec acquire t =
    if t.permits > 0 then t.permits <- t.permits - 1
    else begin
      Sched.await t.sched t.ev;
      acquire t
    end

  let release t =
    t.permits <- t.permits + 1;
    Sched.signal t.sched t.ev

  let available t = t.permits

  let with_permit t f =
    acquire t;
    match f () with
    | v ->
      release t;
      v
    | exception e ->
      release t;
      raise e
end

module Condition = struct
  type t = { sched : Sched.t; ev : Sched.event }

  let create ?(name = "condition") sched =
    { sched; ev = Sched.new_event ~name sched }

  let wait t m =
    Mutex.unlock m;
    Sched.await t.sched t.ev;
    Mutex.lock m

  let signal t = Sched.signal t.sched t.ev
  let broadcast t = Sched.broadcast t.sched t.ev
end
