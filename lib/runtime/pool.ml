open Ppdm_prng

(* Tasks on the queue never raise: submission wraps them so a worker
   survives anything a task does — that is what keeps the pool reusable
   after a failure (and what makes shutdown unconditional). *)
type task = unit -> unit

(* ------------------------------------------------------- observability *)

(* Which pool worker this domain is: 0 for the caller (it helps drain the
   queue), i >= 1 for spawned workers.  Only used to label the per-domain
   busy-time counters. *)
let worker_id_key = Domain.DLS.new_key (fun () -> 0)

(* Run one task under metrics (callers check the enabled flag first so the
   disabled path stays a single branch).  [queued_at] is the submission
   timestamp; its distance to the dequeue time is the queue wait.  The
   wait is attributed to the worker that {e executes} the task — read
   from the executing domain's DLS at dequeue time — so the per-worker
   wait histograms and busy fractions stay truthful. *)
let timed_task ?queued_at f =
  let t0 = Ppdm_obs.Metrics.now_ns () in
  let id = Domain.DLS.get worker_id_key in
  (match queued_at with
  | Some t ->
      let wait = t0 - t in
      Ppdm_obs.Metrics.observe "pool.queue_wait_ns" wait;
      Ppdm_obs.Metrics.observe
        ("pool.queue_wait_ns.w" ^ string_of_int id)
        wait
  | None -> ());
  Ppdm_obs.Metrics.incr "pool.tasks";
  Fun.protect f ~finally:(fun () ->
      Ppdm_obs.Metrics.add
        ("pool.busy_ns.w" ^ string_of_int id)
        (Ppdm_obs.Metrics.now_ns () - t0))

(* --------------------------------------------------- fault injection *)

exception Injected_fault of string

(* Armed fault plan: [Some k] means the k-th task subsequently submitted
   (counted across batches, in submission order on the caller's thread)
   raises instead of running its body.  Submission-order counting is what
   makes the failing task independent of domain scheduling. *)
let fault_countdown : int option ref = ref None

let inject_task_failure ~k =
  if k < 0 then invalid_arg "Pool.inject_task_failure: negative k";
  fault_countdown := Some k

let clear_fault_injection () = fault_countdown := None

let take_fault () =
  match !fault_countdown with
  | None -> false
  | Some 0 ->
      fault_countdown := None;
      true
  | Some k ->
      fault_countdown := Some (k - 1);
      false

let injected_task () = raise (Injected_fault "Pool: injected task failure")

type t = {
  jobs : int;
  mutable workers : unit Domain.t array; (* jobs - 1 spawned domains *)
  queue : task Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopped : bool;
}

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.stopped do
    Condition.wait pool.work_available pool.lock
  done;
  match Queue.take_opt pool.queue with
  | None ->
      (* stopped with an empty queue *)
      Mutex.unlock pool.lock
  | Some task ->
      Mutex.unlock pool.lock;
      task ();
      worker_loop pool

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      workers = [||];
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopped = false;
    }
  in
  (* The workers must capture [pool] itself (they poll [stopped] and share
     the queue), so the field is filled in after construction. *)
  if jobs > 1 then
    pool.workers <-
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set worker_id_key (i + 1);
              worker_loop pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.stopped then Mutex.unlock pool.lock
  else begin
    pool.stopped <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers
  end

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Run every closure in [fns]; collect the first exception rather than
   letting it kill a worker, and re-raise it in the caller only after the
   whole batch has drained (so the pool is quiescent again). *)
let run_all pool fns =
  (* Decide fault substitution here, on the caller's thread and in task
     order, so which task fails is deterministic at any job count.  The
     replaced task raises through the normal collection path below: the
     batch drains, the exception re-raises in the caller, the pool stays
     usable — exactly what the verification harness asserts. *)
  let fns =
    if !fault_countdown = None then fns
    else Array.map (fun f -> if take_fault () then injected_task else f) fns
  in
  let n = Array.length fns in
  (* Sampled once per batch: flipping either flag mid-batch must not tear
     a batch's metrics or leave a begin event without its end. *)
  let instrument = Ppdm_obs.Metrics.enabled () in
  let traced = Ppdm_obs.Trace.enabled () in
  (* Task begin/end land on the executing domain's timeline lane; the
     submit instants (parallel path below) land on the caller's. *)
  let run_task ?queued_at f =
    if traced then
      Ppdm_obs.Trace.with_ ~name:"pool.task" ~cat:"pool" (fun () ->
          if instrument then timed_task ?queued_at f else f ())
    else if instrument then timed_task ?queued_at f
    else f ()
  in
  if n = 0 then ()
  else if Array.length pool.workers = 0 || n = 1 || pool.stopped then begin
    (* Sequential fallback: same closures, same order. *)
    if instrument then Ppdm_obs.Metrics.incr "pool.batches";
    let failed = ref None in
    Array.iter
      (fun f ->
        try run_task f
        with e -> if !failed = None then failed := Some e)
      fns;
    Option.iter raise !failed
  end
  else begin
    if instrument then Ppdm_obs.Metrics.incr "pool.batches";
    let queued_at = if instrument then Some (Ppdm_obs.Metrics.now_ns ()) else None in
    let remaining = Atomic.make n in
    let failed = Atomic.make None in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let finish_one () =
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock batch_lock;
        Condition.signal batch_done;
        Mutex.unlock batch_lock
      end
    in
    if traced then
      Array.iter
        (fun _ -> Ppdm_obs.Trace.instant ~name:"pool.task.submit" ~cat:"pool")
        fns;
    (* The caller is the jobs-th worker: it helps drain the shared queue,
       then waits for stragglers running on other domains. *)
    let rec help () =
      Mutex.lock pool.lock;
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.lock;
          task ();
          help ()
      | None -> Mutex.unlock pool.lock
    in
    let wrap f () =
      (try run_task ?queued_at f
       with e -> ignore (Atomic.compare_and_set failed None (Some e)));
      finish_one ()
    in
    Mutex.lock pool.lock;
    Array.iter (fun f -> Queue.add (wrap f) pool.queue) fns;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    help ();
    Mutex.lock batch_lock;
    while Atomic.get remaining > 0 do
      Condition.wait batch_done batch_lock
    done;
    Mutex.unlock batch_lock;
    match Atomic.get failed with Some e -> raise e | None -> ()
  end

let run pool fns =
  let results = Array.make (Array.length fns) None in
  run_all pool
    (Array.mapi (fun i f -> fun () -> results.(i) <- Some (f ())) fns);
  Array.map Option.get results

let default_chunk = 1024

let piece_count ~n ~chunk =
  if chunk <= 0 then invalid_arg "Pool: chunk must be positive";
  if n < 0 then invalid_arg "Pool: negative n";
  (n + chunk - 1) / chunk

let map_reduce pool ~rng ~n ?(chunk = default_chunk) ~map ~reduce () =
  let pieces = piece_count ~n ~chunk in
  if pieces = 0 then None
  else begin
    let results = Array.make pieces None in
    let tasks =
      Array.init pieces (fun i ->
          let child = Rng.derive rng ~index:i in
          let pos = i * chunk in
          let len = min chunk (n - pos) in
          fun () -> results.(i) <- Some (map child ~pos ~len))
    in
    (* One draw decouples the next map_reduce's children from this one's;
       it happens before running so the advance is identical whether the
       batch runs sequentially or on domains. *)
    ignore (Rng.bits64 rng);
    run_all pool tasks;
    let acc = ref (Option.get results.(0)) in
    for i = 1 to pieces - 1 do
      acc := reduce !acc (Option.get results.(i))
    done;
    Some !acc
  end
