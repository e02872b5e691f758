(** Statistical assertions: empirical validation of the randomization
    operators against their analytical descriptions.

    The quantitative guarantees of the system — the transition matrices
    support recovery inverts, the amplification bound the privacy
    certificate quotes, the unbiasedness of the estimator — are exactly
    the things example-based tests cannot see break.  The helpers here
    test them as statistical hypotheses: sample the real implementation,
    compare against the closed form, and fail only below a p-value of
    [0.001] (a 1-in-1000 false alarm per check, replayable by seed).

    Sample counts follow [$PPDM_CHECK_COUNT] through
    {!Property.scaled}, so nightly runs test the same hypotheses with
    100x the power. *)

open Ppdm_prng
open Ppdm_data
open Ppdm

val erfc : float -> float
(** Complementary error function (rational approximation, absolute error
    below 1.3e-7 — ample for p-value thresholds of 1e-3). *)

val chi_square_pvalue : dof:int -> float -> float
(** Upper-tail p-value of a chi-square statistic (regularized incomplete
    gamma).  @raise Invalid_argument if [dof <= 0]. *)

val chi_square_uniform : int array -> float
(** Chi-square statistic of observed bucket counts against the uniform
    distribution over the buckets; used by the PRNG sanity tests. *)

val chi_square_fit : observed:int array -> expected:float array -> float
(** Goodness-of-fit p-value of observed bucket counts against expected
    ones.  Buckets with expected mass below 5 are pooled with their right
    neighbours (the standard validity rule); a sample landing in a bucket
    of expected mass zero returns 0 outright.  Returns 1 when fewer than
    two poolable buckets remain (no test possible). *)

val z_pvalue : float -> float
(** Two-sided normal p-value of a z statistic. *)

val transition_pvalue :
  ?samples:int ->
  scheme:Randomizer.t ->
  size:int ->
  k:int ->
  l:int ->
  Rng.t ->
  float
(** Empirically validate one column of the transition matrix: fix a
    transaction [t] of [size] items and a [k]-itemset [A] with
    [|t cap A| = l], sample [Randomizer.apply] ([samples] times, default
    {!Property.scaled} [~base:20000]), histogram [|R(t) cap A|], and
    return the chi-square p-value against column [l] of
    [Transition.of_scheme].
    @raise Invalid_argument if [l > min k size], [k > size], or the
    scheme's universe cannot embed [t] and [A]. *)

val amplification_check :
  ?trials:int -> scheme:Randomizer.t -> size:int -> Rng.t -> (unit, string) result
(** Check the amplification bound on sampled triples: for random
    same-size transactions [t1, t2] and a random output [y], the exact
    transition probabilities (closed form of the select-a-size operator)
    must satisfy [p(t1 -> y) <= gamma p(t2 -> y)] and symmetrically,
    where [gamma] is {!Ppdm.Amplification.gamma}.  Trivially [Ok] when
    gamma is infinite (no bound is claimed).  Default trials:
    {!Property.scaled} [~base:300]. *)

val estimator_bias_pvalue :
  ?trials:int ->
  scheme:Randomizer.t ->
  db:Db.t ->
  itemset:Itemset.t ->
  Rng.t ->
  float
(** Run [trials] (default {!Property.scaled} [~base:60]) independent
    randomize-then-estimate rounds over [db] and z-test the mean
    recovered support against the true support — the estimator's
    unbiasedness claim as a hypothesis test. *)

(** {2 Private mining} *)

val private_sigma_coverage :
  scheme:Randomizer.t -> db:Db.t -> Rng.t -> (unit, string) result
(** The σ {!Ppdm.Ppmining.mine} reports, tested as a hypothesis: over
    {!Property.scaled} [~base:40] independent randomizations of [db]
    (universe of at least two items), the standardized errors
    [(est - exact) / σ] of a rotating singleton and of a rotating pair
    must each fall within 1.96 except for a binomial-tail allowance of
    misses. *)
