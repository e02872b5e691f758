(** One ingest shard: a bounded report queue plus its own
    {!Ppdm.Stream} accumulator per tracked itemset.

    Sessions {!submit} validated reports; the shard's folder domain runs
    {!fold_loop}, draining batches and folding each report into every
    accumulator — support estimates update per batch, never by re-mining.
    The sufficient statistic is a per-size histogram of integer counts, so
    folding order and shard assignment cannot change it: merging all
    shards' accumulators ({!snapshot}) is bit-identical to a sequential
    fold of the same reports, whatever the interleaving was. *)

open Ppdm_data
open Ppdm

type t

val create :
  scheme:Randomizer.t -> itemsets:Itemset.t list -> capacity:int -> t
(** @raise Invalid_argument if [itemsets] is empty or [capacity < 1]. *)

val submit : t -> int * Itemset.t * int -> bool
(** Queue one [(original_size, randomized_itemset, submitted_ns)]
    report, blocking when the shard is [capacity] reports behind
    (backpressure on the pushing session).  [submitted_ns] feeds the
    report→fold latency window histogram; pass 0 when metrics are off
    (the folder then skips the latency observation).  [false] iff the
    shard is closed. *)

val fold_loop : t -> batch:int -> unit
(** Drain batches (at most [batch] reports each) and fold them into the
    accumulators until the shard is closed and empty.  Run on exactly one
    domain. *)

val close : t -> unit
(** Stop accepting reports; {!fold_loop} returns once the queue drains. *)

val quiesce : t -> unit
(** Block until every report submitted so far has been folded.  Callers
    quiet the producers first when they need a global barrier. *)

val snapshot : t -> Stream.t list
(** Fresh copies of the accumulators (same order as [itemsets]), taken
    atomically with respect to batch folds: a fold is entirely in or
    entirely out of the copy, so cross-itemset counts are consistent. *)

val folded : t -> int
(** Reports folded so far. *)

val depth : t -> int
(** Reports queued but not yet folded (a gauge). *)
