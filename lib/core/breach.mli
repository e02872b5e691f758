(** Distribution-dependent privacy-breach analysis.

    Where {!Amplification} bounds posteriors for *every* prior (the PODS
    2003 measure), this module computes the actual posteriors under an
    assumed data distribution — the privacy-breach notion of the companion
    KDD 2002 study, and the measurement side of the F5 experiment: the
    empirical posteriors must never exceed the amplification bound. *)

open Ppdm_data

val worst_item_posterior : Randomizer.resolved -> prior:float -> float
(** The larger of the two observable posteriors of an item [a] with
    marginal prior [P(a ∈ t)] in transactions of the operator's size:
    [P(a ∈ t | a ∈ R(t))] and [P(a ∈ t | a ∉ R(t))], by Bayes with the
    keep probability [Σ_j p_j · j / m] against the noise rate ρ.  It is
    the item-level ρ1-to-ρ2 breach level this operator admits at the
    given prior.
    @raise Invalid_argument if [prior] is outside [0,1]. *)

val empirical_item_posteriors :
  original:Db.t -> randomized:Db.t -> item:int -> float * float
(** Measured [(posterior_present, posterior_absent)] for one item from an
    aligned (original, randomized) database pair.  A posterior whose
    conditioning event never occurs is reported as 0.
    @raise Invalid_argument if the databases differ in length. *)

val empirical_worst_item_posterior :
  original:Db.t -> randomized:Db.t -> float
(** Maximum of {!empirical_item_posteriors} over all items that occur in
    the original database. *)
