(** Online support recovery over a stream of randomized transactions.

    The estimator's sufficient statistic is tiny — per original
    transaction size, the histogram of [|y ∩ A|] — so a server can track
    an itemset's support over an unbounded stream in {!Estimator}'s
    by-size layout, (k+1)·(s+1) counts for the largest size s seen (never
    sized by the universe), and aggregators can {!merge} partial
    accumulators (the statistic is a sum).  Results are bit-identical to
    batch {!Estimator.estimate} over the same observations. *)

open Ppdm_data

type t
(** A mutable accumulator for one (scheme, itemset) pair. *)

val create : scheme:Randomizer.t -> itemset:Itemset.t -> t

val itemset : t -> Itemset.t

val observed : t -> int
(** Number of transactions absorbed so far. *)

val counts : t -> int array
(** A copy of the statistic: [counts.(size * (k+1) + l)] is the number of
    transactions of original size [size] whose report holds [l] of the
    itemset's [k] items, up to the largest size observed. *)

val observe : t -> size:int -> Itemset.t -> unit
(** Absorb one randomized transaction tagged with its original size;
    allocates only to grow to a larger size.  A caller folding many adds
    their number to the ["stream.observed"] counter once.
    @raise Invalid_argument on a size outside [[0, universe]]. *)

val observe_all : t -> (int * Itemset.t) array -> unit
(** {!observe} each row, then add their number to ["stream.observed"]. *)

val add_layout :
  t -> scheme:Randomizer.t -> itemset:Itemset.t -> observed:int -> int array ->
  unit
(** [add_layout acc ~scheme ~itemset ~observed counts] adds a statistic
    kept elsewhere in the layout of {!counts} — [observed] transactions
    of [itemset] randomized under [scheme] — into [acc], as {!merge}
    adds each accumulator's (with this add).  [counts] is unchanged.
    @raise Invalid_argument as {!merge}, or if the length of [counts] is
    not a multiple of k + 1. *)

val merge : t list -> t
(** [merge ts] is a fresh accumulator holding the summed statistic of all
    of [ts], none of which is modified — used to combine per-shard
    accumulators (e.g. one per domain of the parallel runtime).  The
    statistic is a sum, so the result does not depend on the order of
    [ts].
    @raise Invalid_argument on the empty list, if the itemsets differ, or
    if two accumulators' schemes disagree (universe or operator
    parameters at any observed size, per {!Randomizer.same_parameters})
    — mixed-scheme counts would silently corrupt {!estimate}. *)

val estimate : t -> Estimator.t
(** Current estimate.  @raise Invalid_argument before any observation. *)
