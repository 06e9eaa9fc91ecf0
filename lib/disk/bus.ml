module Sched = Capfs_sched.Sched
module Sync = Capfs_sched.Sync
module Counter = Capfs_stats.Counter

type t = {
  bname : string;
  sched : Sched.t;
  rate : float;
  arbitration : float;
  phase_overhead : float;
  owner : Sync.Mutex.t;
  mutable busy : float;
  c_acquire_wait : Counter.t;
}

let create ?registry ?(name = "bus") ~rate_bytes_per_sec ?(arbitration = 2.4e-6)
    ?(phase_overhead = 1.0e-4) sched =
  if rate_bytes_per_sec <= 0. then invalid_arg "Bus.create: rate <= 0";
  let c_acquire_wait =
    match registry with
    | Some r ->
      Capfs_stats.Registry.register r
        (Capfs_stats.Stat.scalar (name ^ ".acquire_wait"));
      Capfs_stats.Registry.counter r (name ^ ".acquire_wait")
    | None -> Counter.null
  in
  {
    bname = name;
    sched;
    rate = rate_bytes_per_sec;
    arbitration;
    phase_overhead;
    owner = Sync.Mutex.create ~name sched;
    busy = 0.;
    c_acquire_wait;
  }

let scsi2 ?registry ?(name = "scsi2") sched =
  create ?registry ~name ~rate_bytes_per_sec:10.0e6 sched

let name t = t.bname

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Bus.transfer: negative bytes";
  let wait_start = Sched.now t.sched in
  Sync.Mutex.lock t.owner;
  Counter.record t.c_acquire_wait (Sched.now t.sched -. wait_start);
  let hold =
    t.arbitration +. t.phase_overhead +. (float_of_int bytes /. t.rate)
  in
  Sched.sleep t.sched hold;
  t.busy <- t.busy +. hold;
  Sync.Mutex.unlock t.owner

let busy_seconds t = t.busy
