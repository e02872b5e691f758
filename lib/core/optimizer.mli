(** Designing select-a-size operators under an amplification budget.

    The feasible set for a target amplification γ is, after the
    substitution [u_j = p_j / g_j] with [g_j = C(m,j) (ρ/(1-ρ))^j], the
    box [max_j u_j / min_j u_j <= γ]; both objectives below are optimized
    over the vertices [u_j ∈ {1, γ}]:

    - {e expected items kept} [Σ p_j j/m] is a linear-fractional objective,
      whose optimum is provably a *threshold* vertex ([u_j = γ] exactly
      for [j >= j*]); the search over thresholds is exact.
    - {e predicted estimator σ} is evaluated per vertex: exhaustively
      over all [2^(m+1)] vertices for [m <= 8], otherwise starting from
      the best threshold vertex and descending by single-coordinate flips.

    For one ρ the σ objectives build each [k]'s {!Transition.basis} once;
    every vertex is then a {!Transition.weighted_sum} per [k], scored by
    {!Estimator.predicted_sigma_of_matrix}. *)

type objective =
  | Max_kept  (** maximize the expected fraction of items kept *)
  | Min_sigma of { k : int; n : int; p_bg : float; support : float }
      (** minimize the predicted σ of the support estimate for a
          [k]-itemset at the given hypothetical support, observed over [n]
          transactions (profile: {!Estimator.binomial_profile}) *)
  | Min_sigma_upto of { k_max : int; n : int; p_bg : float; support : float }
      (** minimize [Σ_{k=1..k_max} σ_k]: designs good for *every* itemset
          size up to [k_max].  Targeting a single [k] can yield operators
          that are singular at other sizes (e.g. item-level keep
          probability exactly ρ while pairs stay estimable), which breaks
          any pipeline that also needs the other sizes — the private miner
          above all. *)

val keep_dist : m:int -> rho:float -> gamma:float -> objective -> float array
(** Optimal keep distribution for fixed ρ.  The result always has full
    support, hence finite amplification at most [gamma] (equality up to
    rounding whenever [gamma] is actually binding).
    @raise Invalid_argument unless [m >= 1], [0 < rho < 1], and
    [gamma >= 1]. *)

type design = {
  rho : float;
  dist : float array;
  value : float;  (** achieved objective value *)
  gamma : float;  (** realized amplification (≤ requested) *)
}

val design :
  ?rho_grid:float array -> m:int -> gamma:float -> objective -> design
(** Optimize ρ jointly with the keep distribution by scanning a ρ grid
    (default: 20 log-spaced points in [1e-3, 0.5]) and refining with
    golden-section search around the best grid point. *)

val design_for_estimation :
  ?k:int ->
  ?n:int ->
  ?p_bg:float ->
  ?support:float ->
  m:int ->
  gamma:float ->
  unit ->
  design
(** The recommended joint design: {!design} with a {!Min_sigma_upto}
    objective for itemsets up to size [k] (default [min 3 m]) over [n]
    transactions.  Unlike {!Max_kept} — whose optimum degenerately pushes
    ρ to 0.5, since kept items are free when noise is unpenalized — this
    balances kept items against noise for every itemset size the server
    will query, which is what the paper's accuracy analysis optimizes
    for. *)

val scheme_for_estimation :
  ?k:int ->
  ?n:int ->
  ?p_bg:float ->
  ?support:float ->
  ?representative_size:int ->
  ?rho:float ->
  universe:int ->
  gamma:float ->
  unit ->
  Randomizer.t
(** A complete per-size operator family under one amplification budget:
    the noise rate ρ is designed once at [representative_size] (default 8)
    and shared by every size — as in the paper's deployments — while each
    size gets its own optimal keep distribution at that ρ (solved lazily
    on first use and cached).  This is the constructor applications should
    reach for.  A given [?rho] skips the ρ search and is used as is; the
    name then prints it with [%g] instead of [%.4g].

    Each ρ the design scores bumps the ["optimizer.rho_evals"] counter,
    and every keep-distribution search adds the vertices it scored to
    ["optimizer.vertices"] (both also for {!design} and {!keep_dist}). *)

val cut_and_paste_best :
  universe:int -> m:int -> worst_posterior:float -> prior:float ->
  (int * float) option
(** Baseline tuning used by experiment T3: the (K, ρ) cut-and-paste
    parameters maximizing expected items kept subject to the item-level
    posterior (at the given prior) staying at or below [worst_posterior].
    Scans K in [0, m] and a ρ grid; [None] if nothing qualifies. *)
