(** Bounded producer/consumer queues with batch draining — the buffer
    between client sessions and shard folders.

    The capacity bound is the backpressure mechanism: {!push} blocks while
    the queue is full, which stalls the pushing session, which stops
    reading its socket, which fills the client's TCP window — a slow
    consumer pushes back on its producers instead of growing memory.

    {!pop_batch} drains greedily: it blocks until at least one element is
    queued and takes everything up to [max] — batches grow with load and
    cost no latency when the queue runs dry.  An element count of
    in-flight batches backs {!wait_idle}, the quiescence barrier
    consistent snapshots need. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Enqueue, blocking while the queue is at capacity.  [false] iff the
    queue was closed (the element was not enqueued). *)

val pop : 'a t -> 'a option
(** Dequeue one element, blocking while the queue is empty.  [None] iff
    the queue is closed {e and} drained.  The element counts as in-flight
    until {!done_with} is called. *)

val pop_batch : 'a t -> max:int -> 'a array
(** Dequeue up to [max] elements: block for the first, then take what is
    queued.  [[||]] iff the queue is closed and drained.  The whole batch
    counts as in-flight until {!done_with}.
    @raise Invalid_argument if [max < 1]. *)

val done_with : 'a t -> unit
(** The consumer finished processing its last {!pop}/{!pop_batch} result;
    releases the in-flight count toward {!wait_idle}. *)

val wait_idle : 'a t -> unit
(** Block until the queue is empty and no batch is in flight — the point
    at which every element pushed so far has been fully processed
    (provided producers are quiet, which the caller arranges). *)

val close : 'a t -> unit
(** No further elements are accepted; consumers drain what remains and
    then see [None]/[[||]].  Idempotent. *)

val depth : 'a t -> int
(** Current queued element count (a gauge; racy by nature). *)
