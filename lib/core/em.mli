(** Maximum-likelihood support recovery by expectation-maximization.

    The inversion estimator ([s = P⁻¹ ŝ']) is unbiased but unconstrained:
    with few observations or an ill-conditioned transition matrix it can
    return negative partial supports.  The EM alternative (the
    reconstruction approach of Agrawal & Aggarwal, PODS 2001, transplanted
    to partial supports) maximizes the multinomial likelihood over the
    probability simplex instead:

    - E-step: responsibility of true level [l] for an observation at
      level [l'] is [s_l P(l'|l) / Σ_u s_u P(l'|u)];
    - M-step: [s_l ← Σ_l' (c_l'/N) · responsibility].

    Each iteration is monotone in likelihood, and the iterates stay in the
    simplex by construction.  The result trades the inversion estimator's
    unbiasedness for guaranteed-feasible estimates — the A4 ablation
    quantifies the trade. *)

open Ppdm_data

type t = {
  support : float;  (** estimated support (always in [0, 1]) *)
  partials : float array;  (** simplex point: non-negative, sums to 1 *)
  iterations : int;  (** EM steps until convergence (max over classes) *)
  log_likelihood : float;  (** final observed-data log-likelihood *)
}

val estimate :
  ?max_iterations:int ->
  ?tolerance:float ->
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  itemset:Itemset.t ->
  unit ->
  t
(** EM reconstruction on tagged randomized data; mixed transaction sizes
    are handled per class and pooled by class weight, as in
    {!Estimator.estimate}.  Convergence: max-abs change of the partials
    below [tolerance] (default 1e-10) or [max_iterations] (default 10_000).
    @raise Invalid_argument on empty data. *)
