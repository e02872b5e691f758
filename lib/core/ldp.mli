(** Bridge to local differential privacy (LDP).

    Amplification is an ε-LDP statement in disguise: an operator that is at
    most γ-amplifying over size-[m] transactions satisfies ε-local
    differential privacy with [ε = ln γ] for that input space, and
    conversely.  This module provides the classical symmetric
    randomized-response (RR) frequency oracle as a baseline operator —
    RR is a {!Randomizer.uniform} instance, so the whole
    transition/estimation machinery applies to it unchanged.  The
    ablation benchmark A1 uses this to compare the paper's optimized
    select-a-size designs against RR at matched privacy. *)

val rr_keep_probability : epsilon_per_item:float -> float
(** [e^ε / (1 + e^ε)], the per-bit truth rate of symmetric RR: each bit
    of the characteristic vector is reported truthfully with this
    probability, which is {!Randomizer.uniform} with [p_keep] this and
    [p_add] its complement, and satisfies ε-LDP {e per item}. *)

val rr_epsilon_for_gamma : size:int -> gamma:float -> float
(** The per-item ε making symmetric RR exactly γ-amplifying at the given
    transaction size (bisection on the closed form of
    {!Amplification.gamma} along the symmetric-RR family).  Requires
    [gamma > 1]. *)
