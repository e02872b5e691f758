(** Unbiased recovery of itemset supports from randomized data.

    For a [k]-itemset the server observes the randomized partial-support
    fractions [ŝ'] with [E ŝ' = P s]; the estimator returns [ŝ = P⁻¹ ŝ']
    together with its covariance [P⁻¹ Σ̂ P⁻ᵀ] (plug-in multinomial [Σ̂]).
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
  covariance : Mat.t;  (** covariance of [partials] *)
  n_transactions : int;  (** transactions actually counted (the sample) *)
  n_population : int;
      (** full database size the estimate refers to; equals
          [n_transactions] unless counting ran on a sample *)
}

val observed_partial_counts :
  (int * Itemset.t) array -> itemset:Itemset.t -> ((int * int array) list)
(** Group the tagged randomized data by original transaction size; for
    each size, the counts of [|y ∩ A| = l'] for [l' = 0..k]. *)

(** {2 The size-keyed accumulator}

    The sufficient statistic of a [k]-itemset, shared by
    {!observed_partial_counts} and {!Stream}: per original transaction
    size, a histogram of length [k+1]. *)

type by_size = (int, int array) Hashtbl.t

val size_slot : by_size -> k:int -> int -> int array
(** The histogram for one size, allocated (zeroed, length [k+1]) on
    first use. *)

val sorted_by_size : by_size -> (int * int array) list
(** The histograms in increasing size order — the [counts] argument of
    {!estimate_from_counts}.  The arrays are shared, not copied. *)

val estimate :
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  itemset:Itemset.t ->
  t
(** Full pipeline on tagged randomized data (see
    {!Randomizer.apply_db_tagged}).
    @raise Invalid_argument on empty data. *)

val estimate_sampled :
  population:int ->
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  itemset:Itemset.t ->
  t
(** {!estimate} for [data] that is a uniform without-replacement sample of
    a database of [population] transactions: the sampling variance is
    folded into [sigma] and [covariance], and [n_population] records the
    full size.
    @raise Invalid_argument on empty data or [population < length data]. *)

val estimate_from_counts :
  scheme:Randomizer.t -> k:int -> counts:(int * int array) list -> t
(** Estimation from pre-aggregated observations: for each original
    transaction size, the counts of [|y ∩ A| = l'] (length [k+1]).  This
    is the sufficient statistic — {!Stream} accumulates it online and
    {!estimate} is the one-shot wrapper.  All-zero size classes are
    skipped (they carry no observations).
    @raise Invalid_argument on empty counts, mis-sized vectors, or an
    unrecoverable size class (see {!for_batch}). *)

val for_batch : scheme:Randomizer.t -> k:int -> (int * int array) list -> t
(** {!estimate_from_counts} for a batch of [k]-itemsets (same validation,
    same results bit for bit): apply it to [~scheme ~k] once per batch,
    then to each itemset's counts.  Each size class's transition matrix
    is factorized by the first estimate that needs it and reused by the
    rest of the batch; the ["estimator.solves"] counter and
    ["estimator.solve_ns"] histogram record the factorizations, and the
    gauge ["estimator.cond.s<size>.k<k>"] the condition number
    [‖P‖∞·‖P⁺‖∞] of each.  The
    partial application holds a mutable table: keep it to one domain.
    @raise Invalid_argument also when a size class is unrecoverable: its
    transition matrix is singular or its condition number exceeds [1e12]
    (as when an operator's keep and add probabilities coincide).  The
    message names the size and [k]. *)

val estimate_from_counts_sampled :
  population:int ->
  scheme:Randomizer.t ->
  k:int ->
  counts:(int * int array) list ->
  t
(** {!estimate_from_counts} when the counts were taken over a uniform
    sample out of [population] transactions ({!estimate_sampled} from the
    sufficient statistic).
    @raise Invalid_argument additionally when [population] is smaller
    than the total count. *)

val sampling_covariance :
  partials:float array -> n:int -> population:int -> Mat.t
(** Covariance contributed by counting on a uniform without-replacement
    sample of [n] transactions out of [population]: the
    finite-population-corrected multinomial covariance
    [(population-n)/(population-1) · 1/n · (diag s − s sᵀ)] of the
    sample's true partial-support vector around the population's.  It
    composes additively with the randomization covariance (the two noise
    sources are independent).  [partials] are clamped to [0,1]; the
    result is zero when [population = n].
    @raise Invalid_argument if [n <= 0] or [population < n]. *)

val sampling_sigma : support:float -> n:int -> population:int -> float
(** [sqrt] of the support entry of {!sampling_covariance} for a 1-vector
    profile — the standalone sampling noise on one support estimate. *)

val predicted_sigma :
  ?population:int ->
  Randomizer.resolved ->
  k:int ->
  partials:float array ->
  n:int ->
  float
(** Theoretical standard deviation of the recovered support when the true
    partial-support vector is [partials] and [n] size-[m] transactions are
    observed — the paper's accuracy formula (used by F1/F2 and the
    optimizer).  Requires [k <= m].  With [?population] the sampling
    variance of an [n]-of-[population] uniform sample is added. *)

val predicted_sigma_of_matrix :
  ?population:int ->
  Mat.t ->
  k:int ->
  partials:float array ->
  n:int ->
  float
(** {!predicted_sigma} for a transition matrix already built (a
    {!Transition.weighted_sum}), so a caller scoring many operators at one
    ρ does not rebuild it: the full inverse of [P] conjugating the
    conditional covariance, read at entry [(k, k)].
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
  ?population:int -> Randomizer.resolved -> k:int -> n:int -> p_bg:float -> float
(** Smallest support [s] whose predicted σ is at most [s / 2] under the
    binomial profile: the paper's discoverability threshold.  Returns 1.0
    when even full support is not discoverable.  With [?population] the
    threshold accounts for sampled counting ([n] of [population] rows)
    and rises accordingly. *)
