(** One ingest shard: a bounded report queue plus the statistic of every
    tracked itemset, in {!Ppdm.Stream}'s by-size layout.

    Sessions {!submit} validated reports; the shard's folder domain runs
    {!fold_loop}, draining batches and folding each report by item: an
    index built at {!create} maps each item to the tracked itemsets that
    hold it, so a report costs a walk over its own items plus one count
    per itemset it hits, not a merge-walk per tracked itemset.  The shard
    counts its reports per size; the [l = 0] entry of a layout, the
    reports that hit that itemset nowhere, is that count minus the hits,
    filled in when {!merge_into} reads the shard.  Support estimates
    update per batch, never by re-mining.  The statistic is integer
    counts, so folding order and shard assignment cannot change it:
    merging all shards ({!merge_into}) is bit-identical to a sequential
    {!Ppdm.Stream.observe} of the same reports per itemset, whatever the
    interleaving was. *)

open Ppdm_data
open Ppdm

type t

val create :
  scheme:Randomizer.t -> itemsets:Itemset.t list -> capacity:int -> t
(** Tracked itemsets may overlap and repeat.
    @raise Invalid_argument if [itemsets] is empty or [capacity < 1]. *)

val submit : t -> int * Itemset.t * int -> bool
(** Queue one [(original_size, randomized_itemset, submitted_ns)]
    report, blocking when the shard is [capacity] reports behind
    (backpressure on the pushing session).  [submitted_ns] feeds the
    report→fold latency window histogram; pass 0 when metrics are off
    (the folder then skips the latency observation).  [false] iff the
    shard is closed. *)

val fold_loop : t -> batch:int -> unit
(** Drain batches (at most [batch] reports each) and fold them until the
    shard is closed and empty.  Run on exactly one domain.  Each batch
    adds its length times the number of tracked itemsets to the
    ["stream.observed"] counter.
    @raise Invalid_argument on a report whose size is outside
    [[0, universe]] (its batch is not folded). *)

val close : t -> unit
(** Stop accepting reports; {!fold_loop} returns once the queue drains. *)

val quiesce : t -> unit
(** Block until every report submitted so far has been folded.  Callers
    quiet the producers first when they need a global barrier. *)

val merge_into : t -> Stream.t list -> unit
(** [merge_into t accs] adds the shard's statistic into [accs], one
    accumulator per tracked itemset in the order of [itemsets], through
    {!Ppdm.Stream.add_layout}, under the shard's lock: a batch fold is
    entirely in or entirely out, so cross-itemset counts are consistent.
    Nothing is copied.
    @raise Invalid_argument as {!Ppdm.Stream.add_layout}, or if [accs]
    is not one accumulator per tracked itemset. *)

val folded : t -> int
(** Reports folded so far. *)

val depth : t -> int
(** Reports queued but not yet folded (a gauge). *)
