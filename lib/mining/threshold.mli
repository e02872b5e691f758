(** The one support-threshold rule shared by every miner.

    "Support at least [min_support]" must mean the same absolute count in
    Apriori, Eclat, FP-growth, and the parallel drivers, or the miners
    disagree at boundary supports (e.g. [min_support * n] exactly
    integral, where an unguarded [ceil] is one ulp away from flipping).
    Each miner used to inline its own copy of the formula; this module is
    the single definition. *)

val check_min_support : who:string -> float -> unit
(** [check_min_support ~who m] is the one range check on a support
    fraction, shared by every miner's entry point.
    @raise Invalid_argument ["<who>: min_support out of (0,1]"] unless
    [0 < m <= 1]; NaN is rejected. *)

val absolute : n:int -> min_support:float -> int
(** [absolute ~n ~min_support] is the absolute count threshold for a
    database of [n] transactions: [ceil(min_support * n)] computed with a
    [1e-9] tolerance against float round-off, and never below 1 (an
    itemset must occur to be frequent, even at tiny supports).
    @raise Invalid_argument if [min_support] is outside (0, 1] (or NaN)
    or [n] is negative. *)
