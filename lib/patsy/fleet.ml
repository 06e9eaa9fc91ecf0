(* Domain-pool experiment runner. See fleet.mli for the isolation
   rules; the implementation is a work-stealing-free fixed pool: an
   atomic counter hands out job indices, each worker writes only its
   own result slots, and [Domain.join] publishes them to the caller. *)

module Errno = Capfs_core.Errno

type job = {
  label : string;
  trace : string;
  config : Experiment.config;
}

type failure = Failed of Errno.t | Crashed of exn

let pp_failure ppf = function
  | Failed e -> Format.fprintf ppf "failed: %a" Errno.pp e
  | Crashed e -> Format.fprintf ppf "crashed: %s" (Printexc.to_string e)

(* the one place a worker classifies what went wrong: typed file-system
   errors stay typed, anything else is a crash *)
let failure_of_exn = function
  | Errno.Error e -> Failed e
  | e -> Crashed e

type job_result = {
  job : job;
  result : (Experiment.outcome, failure) result;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
  worker : int;
}

let default_jobs () = Domain.recommended_domain_count ()

let matrix_label ~trace policy = trace ^ "/" ^ Experiment.policy_name policy

let run_jobs ?(jobs = default_jobs ()) ~gen jl =
  let table = Array.of_list jl in
  let n = Array.length table in
  let jobs = Stdlib.max 1 (Stdlib.min jobs n) in
  let results : job_result option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker w () =
    (* per-worker trace memo: the same trace name may back several
       policies; regenerating it in every worker keeps the generator's
       PRNG private to the domain that uses it *)
    let traces : (string, Capfs_trace.Source.t) Hashtbl.t =
      Hashtbl.create 8
    in
    let trace_of name =
      match Hashtbl.find_opt traces name with
      | Some t -> t
      | None ->
        let t = gen name in
        (* force lazily generated arrays now, so generation is billed
           here (outside the GC window) and not to the first experiment;
           cursor-backed sources stay unmaterialized *)
        ignore (Capfs_trace.Source.as_array t : Capfs_trace.Record.t array option);
        Hashtbl.replace traces name t;
        t
    in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let job = table.(i) in
        let t0 = Unix.gettimeofday () in
        (* GC counters are per-domain in OCaml 5, and a worker runs one
           job at a time, so quick_stat deltas around the experiment
           (trace generation excluded: it is memoized, so it would bill
           only the first job to use each trace) are the job's own, given
           two collections. quick_stat's minor and promoted words advance
           only at a minor collection, so one precedes each reading. And
           the window opens on a finished major cycle and an empty minor
           heap: otherwise the minor collections inside it, and so what
           it promotes, depend on the jobs this worker ran before. *)
        let result, minor_words, promoted_words, major_words,
            major_collections =
          match trace_of job.trace with
          | trace -> (
            Gc.full_major ();
            let g0 = Gc.quick_stat () in
            match Experiment.run job.config ~trace with
            | o ->
              Gc.minor ();
              let g1 = Gc.quick_stat () in
              ( Ok o,
                g1.Gc.minor_words -. g0.Gc.minor_words,
                g1.Gc.promoted_words -. g0.Gc.promoted_words,
                g1.Gc.major_words -. g0.Gc.major_words,
                g1.Gc.major_collections - g0.Gc.major_collections )
            | exception e -> (Error (failure_of_exn e), 0., 0., 0., 0))
          | exception e -> (Error (failure_of_exn e), 0., 0., 0., 0)
        in
        let wall_s = Unix.gettimeofday () -. t0 in
        (* each slot is written by exactly one worker; Domain.join
           below publishes the writes to the caller *)
        results.(i) <-
          Some
            {
              job;
              result;
              wall_s;
              minor_words;
              promoted_words;
              major_words;
              major_collections;
              worker = w;
            };
        loop ()
      end
    in
    loop ()
  in
  if jobs = 1 then worker 0 ()
  else begin
    (* one domain per worker: join them all before re-raising the first
       escaped exception, so no domain outlives the call *)
    let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
    let failed =
      List.filter_map
        (fun d ->
          match Domain.join d with () -> None | exception e -> Some e)
        domains
    in
    match failed with e :: _ -> raise e | [] -> ()
  end;
  Array.to_list results
  |> List.mapi (fun i r ->
         match r with
         | Some r -> r
         | None ->
           (* unreachable: every index below [n] is claimed exactly once *)
           failwith
             (Printf.sprintf "Fleet.run_jobs: job %d produced no result" i))

let run_matrix ?jobs ?(config = Experiment.default) ~gen pairs =
  run_jobs ?jobs ~gen
    (List.map
       (fun (trace, policy) ->
         { label = matrix_label ~trace policy; trace; config = config policy })
       pairs)

let outcome_exn r =
  match r.result with
  | Ok o -> o
  | Error (Failed e) -> raise (Errno.Error e)
  | Error (Crashed e) -> raise e

let failures results =
  List.filter_map
    (fun r -> match r.result with Ok _ -> None | Error e -> Some (r.job, e))
    results

let merged_events results =
  let streams =
    List.mapi
      (fun i r ->
        match r.result with
        | Ok o -> List.map (fun ev -> (i, ev)) o.Experiment.events
        | Error _ -> [])
      results
  in
  let all = List.concat streams in
  (* each job's virtual clock starts at 0, so (time, stream, seq) gives a
     deterministic interleaving whatever the worker count was *)
  List.stable_sort
    (fun (ia, a) (ib, b) ->
      let c = Float.compare a.Capfs_obs.Event.time b.Capfs_obs.Event.time in
      if c <> 0 then c
      else
        let c = Int.compare ia ib in
        if c <> 0 then c
        else Int.compare a.Capfs_obs.Event.seq b.Capfs_obs.Event.seq)
    all
