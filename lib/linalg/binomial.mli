(** Numerically stable combinatorics: log-space factorials, binomial
    coefficients, and the binomial / hypergeometric probability mass
    functions used by the randomization-operator transition matrices. *)

val log_factorial : int -> float
(** [log_factorial n] is [ln n!], exact summation with memoization (the
    table may be grown from several domains at once).  Requires [n >= 0]. *)

val log_choose : int -> int -> float
(** [log_choose n k] is [ln C(n,k)]; [neg_infinity] outside [0 <= k <= n]. *)

val choose : int -> int -> float
(** [choose n k] as a float; [0.] outside the valid range.  Exact for all
    values representable in 53 bits. *)

val binomial_pmf : n:int -> p:float -> int -> float
(** [binomial_pmf ~n ~p k] is [P(X = k)] for [X ~ Binomial(n, p)].
    Computed in log space; correct for the degenerate [p = 0] and [p = 1]
    cases. *)

val hypergeom_pmf : total:int -> good:int -> draws:int -> int -> float
(** [hypergeom_pmf ~total ~good ~draws q] is the probability that a uniform
    [draws]-subset of a [total]-element set containing [good] marked
    elements includes exactly [q] marked ones. *)

val log_pow : float -> int -> float
(** [log_pow p k] is [k * ln p], with the convention [log_pow 0. 0 = 0.]
    (so that [exp] of it is [p^k] including [0^0 = 1]). *)
