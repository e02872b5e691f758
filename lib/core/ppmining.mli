(** Privacy-preserving association mining: Apriori re-instantiated over
    randomized data with estimated supports (the end-to-end algorithm of
    the KDD 2002 / PODS 2003 line of work).

    The miner never sees original transactions — only the tagged
    randomized data and the (public) randomization scheme.  Candidate
    exploration uses a slackened threshold [minsup - slack · σ] so that
    true frequent itemsets whose estimates fluctuate low are not cut off
    early (the paper's remedy for false drops); the reported discoveries
    are the candidates whose *estimate* clears [minsup]. *)

open Ppdm_data

type discovery = {
  itemset : Itemset.t;
  est_support : float;
  sigma : float;  (** estimated standard deviation of [est_support] *)
}

type result = {
  discovered : discovery list;  (** estimate ≥ minsup, by {!Itemset.compare} *)
  explored : discovery list;  (** every candidate that survived the
                                  slackened threshold (superset) *)
}

val mine :
  ?max_size:int ->
  ?sigma_slack:float ->
  ?sigma_cap:float ->
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  min_support:float ->
  unit ->
  result
(** [sigma_slack] defaults to 2.0 (explore down to minsup - 2σ).

    [sigma_cap] (default [min_support / 2]) prunes candidates whose
    estimate carries no signal.  The default is exactly the paper's
    discoverability criterion (a support is discoverable when σ ≤ s/2):
    past it the slackened bound is vacuous and exploration blows up
    combinatorially, precisely the regime the analysis calls
    undiscoverable at this privacy level.

    Every level counts on one size-class-windowed transpose of [data]
    ({!Reports.freeze}; counting in span ["ppmining.count"]) and
    estimates its candidates against one {!Estimator.batch} (span
    ["ppmining.estimate"]); the result is
    bit-identical to estimating each candidate with {!Estimator.estimate}.
    The counters ["ppmining.pruned.sigma_cap"] and
    ["ppmining.pruned.support"] count the candidates dropped by the σ cap
    and by the slackened support test.
    @raise Invalid_argument if [min_support] is outside (0, 1], the data
    is empty, or a row's size or item lies outside the universe.
    @raise Estimator.Unrecoverable if a size class is unrecoverable. *)

val mine_reports :
  ?max_size:int ->
  ?sigma_slack:float ->
  ?sigma_cap:float ->
  scheme:Randomizer.t ->
  reports:Reports.t ->
  min_support:float ->
  unit ->
  result
(** {!mine} on a report store: [mine ~data] is [mine_reports] of
    [Reports.of_tagged data].  The store is frozen once, in the span
    ["ppmining.transpose"]. *)

type accuracy = {
  true_positives : int;
  false_positives : int;  (** discovered but not truly frequent *)
  false_drops : int;  (** truly frequent but not discovered *)
}

val accuracy_vs :
  truth:(Itemset.t * int) list -> mined:result -> accuracy
(** Compare discoveries against the frequent itemsets mined from the
    original data (e.g. by {!Ppdm_mining.Apriori.mine}). *)
