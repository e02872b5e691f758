(** A fixed-size pool of OCaml domains with deterministic fan-out.

    The pool is the execution substrate of the parallel runtime: create it
    once (domain spawn is expensive), reuse it across calls, shut it down
    at the end.  [create ~jobs:1] (or less) spawns no domains at all and
    every primitive degrades to plain sequential execution — callers never
    branch on the job count themselves.

    {2 Determinism contract}

    Parallel output is bit-identical to sequential output at any job
    count.  Three rules make this hold, and every primitive obeys them:

    + work is cut into chunks of a {e fixed} size — never a size computed
      from the job count;
    + chunk [i] draws randomness only from [Rng.derive rng ~index:i], a
      child stream that is a pure function of the caller's generator state
      and the chunk index, not of scheduling;
    + results are combined in chunk-index order (a left fold), regardless
      of completion order.

    A worker exception cancels nothing structurally: remaining tasks still
    run, the first exception is re-raised in the caller once the batch has
    drained, and the pool remains usable — workers never die.

    {2 Scheduling}

    Every task of a batch goes through one shared queue, and domains
    (the caller included) take the next task as they free up.  Which
    domain runs a task is therefore up to the schedule, but never what
    the task computes or how results are combined — tasks write to
    per-index slots and the caller reduces in task order — so output is
    byte-identical across job counts and the sequential fallback.
    Observability: each task's queue wait lands on the {e executing}
    worker's [pool.queue_wait_ns.w<i>] histogram and its run time on
    [pool.busy_ns.w<i>]. *)

open Ppdm_prng

type t
(** A pool of domains.  Not reentrant: do not call pool primitives from
    inside a task running on the same pool. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains; the caller itself
    acts as the remaining worker while a batch runs, so a batch uses
    [jobs] domains of compute in total.  [jobs <= 1] spawns nothing and
    makes every primitive sequential. *)

val jobs : t -> int
(** The job count the pool was created with (minimum 1). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Pending tasks of an in-flight
    batch are drained first.  Using the pool after shutdown runs
    everything sequentially in the caller. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] creates a pool, applies [f], and shuts the pool
    down whether [f] returns or raises. *)

val default_chunk : int
(** Chunk size used when [?chunk] is omitted (1024 work items).  A fixed
    constant by design: chunking must not depend on the job count, or
    outputs would differ across job counts. *)

(** {2 Deterministic fault injection (testing)}

    The verification harness ([ppdm_check]) proves that a task failure
    surfaces as an exception in the caller with no deadlock, no lost
    sibling tasks, and no dead pool.  [inject_task_failure ~k] arms a
    one-shot fault: counting every task subsequently submitted to any
    pool primitive (across batches) in submission order, the [k]-th task
    raises {!Injected_fault} instead of running its body.  Counting
    happens at submission time on the caller's thread, so the choice of
    failing task is independent of domain scheduling and job count.
    Test-only: the armed state is process-global and not synchronized
    against concurrent submitters; always disarm in a [finally]. *)

exception Injected_fault of string

val inject_task_failure : k:int -> unit
(** Arm the one-shot fault at the [k]-th subsequently submitted task
    (0-based).  @raise Invalid_argument if [k < 0]. *)

val clear_fault_injection : unit -> unit
(** Disarm (idempotent). *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run pool tasks] executes every task (on whatever domain), returning
    their results in task order.  If tasks raise, every task still runs
    and the first exception (in completion order) is re-raised after the
    batch drains.  For
    deterministic randomized work, prefer {!map_reduce} / {!map_array},
    which handle seeding. *)

val map_reduce :
  t ->
  rng:Rng.t ->
  n:int ->
  ?chunk:int ->
  map:(Rng.t -> pos:int -> len:int -> 'b) ->
  reduce:('b -> 'b -> 'b) ->
  unit ->
  'b option
(** [map_reduce pool ~rng ~n ~map ~reduce ()] cuts [0..n-1] into chunks,
    calls [map child ~pos ~len] for each — [child] being the chunk's
    derived generator — and left-folds the chunk results with [reduce] in
    chunk-index order.  [None] iff [n = 0].  [rng] is advanced exactly
    once (by one draw), identically at every job count, so consecutive
    calls see fresh randomness.
    @raise Invalid_argument if [n < 0] or [chunk <= 0]. *)

val map_array :
  t ->
  rng:Rng.t ->
  ?chunk:int ->
  f:(Rng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_array pool ~rng ~f arr] is [Array.map] with per-chunk derived
    generators: element [i] is transformed with its chunk's child stream,
    elements within a chunk strictly in index order.  Advances [rng] once,
    like {!map_reduce}.
    @raise Invalid_argument if [chunk <= 0]. *)
