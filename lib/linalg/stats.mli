(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean.  Requires a non-empty array. *)

val std : float array -> float
(** Square root of the unbiased sample variance (n-1 denominator).
    Requires at least two samples. *)

val rmse : float array -> float array -> float
(** Root-mean-square error between paired arrays of equal length. *)

val normal_quantile : float -> float
(** Inverse CDF of the standard normal (Acklam's rational approximation,
    relative error below 1.2e-9).  Requires the argument in (0, 1). *)
