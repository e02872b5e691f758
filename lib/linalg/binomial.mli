(** Numerically stable combinatorics: log-space factorials, binomial
    coefficients, and the binomial / hypergeometric probability mass
    functions used by the randomization-operator transition matrices. *)

val log_choose : int -> int -> float
(** [log_choose n k] is [ln C(n,k)]; [neg_infinity] outside [0 <= k <= n].
    The factorials are exact sums of logarithms, memoized in a table that
    may be grown from several domains at once. *)

val binomial_pmf : n:int -> p:float -> int -> float
(** [binomial_pmf ~n ~p k] is [P(X = k)] for [X ~ Binomial(n, p)].
    Computed in log space; correct for the degenerate [p = 0] and [p = 1]
    cases. *)

val hypergeom_pmf : total:int -> good:int -> draws:int -> int -> float
(** [hypergeom_pmf ~total ~good ~draws q] is the probability that a uniform
    [draws]-subset of a [total]-element set containing [good] marked
    elements includes exactly [q] marked ones. *)
