(** Transition matrices of randomization operators on partial supports.

    Fix a [k]-itemset [A] and a transaction size [m].  A transaction with
    [l = |t ∩ A|] yields a randomized output with [l' = |R(t) ∩ A|]
    distributed as

    [P(l' | l) = Σ_j p_j · Σ_q Hyp(q; m, l, j) · Bin(l' - q; k - l, ρ)]

    (keep [q] of the [l] in-transaction items of [A], add noise on the
    [k - l] out-of-transaction ones).  The matrix [P] with entry [(l', l)]
    is column-stochastic; support recovery is [s = P⁻¹ ŝ'].

    For fixed [(m, ρ, k)], [P] is linear in the keep distribution:
    [P = Σ_j p_j · B_j] with [B_j(l', l) = Σ_q Hyp(q; m, l, j) · Bin(l' - q;
    k - l, ρ)].  {!basis} tabulates the [B_j] once, in log space through
    {!Ppdm_linalg.Binomial}, keeping each entry's [(Hyp, Bin)] factor pairs
    so that {!weighted_sum} adds [p_j · Hyp · Bin] in the order of the
    entry-by-entry sum: the result is bit-identical to summing the formula
    above per entry.  Every transition matrix in the library is a
    {!weighted_sum} of a basis, so an operator search over many keep
    distributions at one ρ pays for the pmfs once. *)

open Ppdm_linalg

type basis
(** The [m + 1] matrices [B_0 .. B_m] of one [(m, ρ, k)], each
    [(k+1) × (min(k,m)+1)]. *)

val basis : m:int -> rho:float -> k:int -> basis
(** @raise Invalid_argument on negative [m] or [k]. *)

val weighted_sum : basis -> float array -> Mat.t
(** [weighted_sum b p] is [Σ_j p_j · B_j], skipping every [j] with
    [p_j = 0]: the transition matrix of keep distribution [p] (length
    [m + 1]) at the basis's ρ and [k].
    @raise Invalid_argument on a length mismatch. *)

val matrix : Randomizer.resolved -> k:int -> Mat.t
(** Square [(k+1) × (k+1)] matrix, entry [(l', l) = P(l' | l)].  Requires
    [k <= m] (every partial-support level realizable).
    @raise Invalid_argument otherwise — use {!rect_matrix} for small
    transactions. *)

val rect_matrix : Randomizer.resolved -> k:int -> Mat.t
(** Rectangular [(k+1) × (min(k,m)+1)] matrix for transactions smaller
    than the itemset: columns only for realizable [l].  Equal to
    {!matrix} when [k <= m]. *)

val of_scheme : Randomizer.t -> size:int -> k:int -> Mat.t
(** {!matrix} of the operator a scheme uses at [size]. *)

val is_column_stochastic : ?tolerance:float -> Mat.t -> bool
(** Sanity check used by the test suite: all entries non-negative and
    every column summing to 1 within the tolerance (default 1e-9). *)
