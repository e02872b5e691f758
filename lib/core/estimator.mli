(** Unbiased recovery of itemset supports from randomized data.

    For a [k]-itemset the server observes the randomized partial-support
    fractions [ŝ'] with [E ŝ' = P s]; the estimator returns [ŝ = P⁻¹ ŝ']
    together with σ, the square root of the [(k, k)] entry of its
    covariance [P⁻¹ Σ̂ P⁻ᵀ] (plug-in multinomial [Σ̂]).  Only that entry is
    formed, bit for bit as the full conjugation would give it; the matrix
    route is kept as the reference in [Ppdm_check.Oracle].
    Databases with mixed transaction sizes are handled by partitioning by
    size — each size class has its own operator and transition matrix —
    and pooling the per-class estimates with their class weights.
    Transactions smaller than [k] (which can never contain the itemset but
    still produce observations) go through the rectangular least-squares
    variant. *)

open Ppdm_data
open Ppdm_linalg

type t = {
  support : float;  (** estimated support [ŝ_k] (may fall outside [0,1]) *)
  partials : float array;  (** full estimated partial-support vector *)
  sigma : float;  (** estimated standard deviation of [support] *)
  n_transactions : int;  (** transactions counted *)
}

exception Unrecoverable of { size : int; k : int }
(** A size class whose transition matrix carries no recoverable signal at
    itemset size [k]: it is singular, or (for an estimate) its condition
    number [‖P‖∞·‖P⁺‖∞] exceeds [1e12], as when an operator's keep and add
    probabilities coincide. *)

(** {2 The by-size layout}

    The sufficient statistic of a [k]-itemset, as {!Stream}, {!Ppmining}
    and every estimate below lay it out: one flat [int array] with the
    histogram of [|y ∩ A| = l'] for original transaction size [s] at
    [counts.(s * (k+1) + l')], as long as the largest size present (a
    size with no observation holds zeros). *)

val observed_sizes : k:int -> int array -> int list
(** The sizes whose histogram is not all zero, in increasing order. *)

val observed_partial_counts :
  (int * Itemset.t) array -> itemset:Itemset.t -> ((int * int array) list)
(** The tagged randomized data's histogram for each {!observed_sizes}
    size, as [(size, counts of |y ∩ A| = l' for l' = 0..k)]. *)

val estimate_by_size : scheme:Randomizer.t -> k:int -> int array -> t
(** {!batch} over the {!observed_sizes}, then {!pooled}.
    @raise Invalid_argument if every histogram is zero.
    @raise Unrecoverable on an unrecoverable size class. *)

val estimate :
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  itemset:Itemset.t ->
  t
(** Full pipeline on tagged randomized data, [(original size, report)]
    rows in input order as a report store holds them
    ({!Reports.iter_rows}): the rows counted into the layout
    under the span ["estimator.count"], then {!estimate_by_size}.
    @raise Invalid_argument on empty data. *)

val estimate_from_counts :
  scheme:Randomizer.t -> k:int -> counts:(int * int array) list -> t
(** {!estimate_by_size} on pre-aggregated observations: one histogram
    of [|y ∩ A| = l'] (length [k+1]) per original transaction size.
    @raise Invalid_argument on empty counts, a negative size or a
    mis-sized vector.
    @raise Unrecoverable on an unrecoverable size class (see {!batch}). *)

(** {2 Batch estimation}

    The private miner estimates a whole level of candidates over the same
    size classes. *)

type batch
(** Every size class's transition matrix at one [k], factorized once,
    and the scratch the estimate writes into.  Holds mutable state: keep
    it to one domain. *)

val batch : scheme:Randomizer.t -> k:int -> int array -> batch
(** [batch ~scheme ~k sizes] factorizes the class of each size in
    [sizes]; the ["estimator.solves"] counter and ["estimator.solve_ns"]
    histogram record the factorizations, and the gauge
    ["estimator.cond.s<size>.k<k>"] the condition number of each.
    @raise Unrecoverable at the first size whose class is unrecoverable. *)

val pooled : batch -> int array -> t
(** [pooled b counts] is the estimate from the layout [counts], which
    holds no observation outside [b]'s sizes: each size's histogram, in
    [b]'s order, pooled with its class weight.  Allocates only the
    returned estimate.
    @raise Invalid_argument if a size's histogram is all zero. *)

val predicted_sigma :
  Randomizer.resolved -> k:int -> partials:float array -> n:int -> float
(** Theoretical standard deviation of the recovered support when the true
    partial-support vector is [partials] and [n] size-[m] transactions are
    observed — the paper's accuracy formula (used by F1/F2 and the
    optimizer).  Requires [k <= m].
    @raise Unrecoverable when the transition matrix is singular. *)

val predicted_sigma_of_matrix :
  Mat.t -> k:int -> partials:float array -> n:int -> float
(** {!predicted_sigma} for a transition matrix already built (a
    {!Transition.weighted_sum}), so a caller scoring many operators at one
    ρ does not rebuild it: the [(k, k)] entry of [P⁻¹] conjugating the
    conditional covariance, from the last row of [P⁻¹] alone
    ({!Ppdm_linalg.Lu.inverse_last_row}).
    @raise Ppdm_linalg.Lu.Singular on a singular [P].
    @raise Invalid_argument unless [P] is [(k+1) × (k+1)]. *)

val confidence_interval : t -> level:float -> float * float
(** Normal-approximation confidence interval for the recovered support at
    the given two-sided level (e.g. 0.95), clamped to [0, 1].
    @raise Invalid_argument unless [0 < level < 1]. *)

val binomial_profile : k:int -> p_bg:float -> support:float -> float array
(** Canonical partial-support profile for analysis: items of the target
    itemset behave as background Bernoulli([p_bg]) except that the full
    itemset is forced to true support [support].  Used to evaluate
    {!predicted_sigma} at a hypothetical support level. *)

val lowest_discoverable_support :
  Randomizer.resolved -> k:int -> n:int -> p_bg:float -> float
(** Smallest support [s] whose predicted σ is at most [s / 2] under the
    binomial profile: the paper's discoverability threshold.  Returns 1.0
    when even full support is not discoverable.
    @raise Unrecoverable as {!predicted_sigma}. *)
