(** Amplification analysis: the paper's distribution-free privacy measure.

    An operator is *at most γ-amplifying* when
    [p(t1 → y) / p(t2 → y) <= γ] for all same-size transactions [t1, t2]
    and all outputs [y].  The breach-prevention theorem then bounds every
    posterior, for every property and every prior distribution:

    - no upward ρ1-to-ρ2 breach when [γ < ρ2 (1 - ρ1) / (ρ1 (1 - ρ2))].

    For a select-a-size operator the transition probability factorizes
    through [a = |t ∩ y|], giving the closed form implemented here:
    [γ = exp (max_a f(a) - min_a f(a))] with
    [f(a) = ln p_a - ln C(m,a) + a ln ((1-ρ)/ρ)].  γ is infinite when some
    [p_a] is zero (an output can then *exclude* a transaction with
    certainty) and when [ρ] is 0 or 1. *)

val gamma_resolved : Randomizer.resolved -> float
(** Worst-case amplification of one per-size operator ([infinity] when
    unbounded).  Assumes the universe is large enough that every
    intersection pattern is realizable ([n >= 3m] suffices); schemes built
    by this library satisfy that in all shipped experiments. *)

val gamma : Randomizer.t -> size:int -> float
(** [gamma scheme ~size] is {!gamma_resolved} of the operator the scheme
    uses at that transaction size. *)

val gamma_breach_limit : rho1:float -> rho2:float -> float
(** Largest γ that provably prevents every upward ρ1-to-ρ2 breach:
    [ρ2 (1 - ρ1) / (ρ1 (1 - ρ2))].  Requires [0 < rho1 < rho2 < 1].  By
    the symmetric odds inequality the same constant rules out the
    downward ρ2-to-ρ1 breaches. *)

val posterior_upper_bound : gamma:float -> prior:float -> float
(** Distribution-free posterior ceiling: for any property with prior π,
    every posterior is at most [γπ / (1 + (γ-1)π)]. *)
