(** LU decomposition with partial pivoting, and the linear solvers built on
    it.  This is the numerical engine behind the partial-support estimator
    ([s = P^-1 s'] and its covariance conjugation).

    There is one factorization routine.  It works in place on a flat
    row-major array: {!decompose} runs it on a fresh copy of a matrix, and
    {!factor} on the storage of a factorization made by {!create}, so a
    caller factorizing many matrices of one size allocates nothing per
    matrix. *)

type t
(** A factorization [P A = L U] of a square matrix [A], with a row of
    scratch for {!inverse_last_row}.  Holds mutable state: keep it to one
    domain. *)

exception Singular
(** Raised when a pivot is exactly zero: the matrix is singular to working
    precision. *)

val decompose : Mat.t -> t
(** Factorize a square matrix.  @raise Singular on singular input and
    [Invalid_argument] on non-square input. *)

val create : int -> t
(** [create n] is storage for the factorization of an [n × n] matrix, to
    be filled by {!factor}.  @raise Invalid_argument unless [n >= 1]. *)

val factor : t -> float array -> unit
(** [factor t a] overwrites [t] with the factorization of the [n × n]
    matrix whose row-major entries are [a] ([a] is not modified).  The
    operations and their order are those of {!decompose}, so the factors
    are the same bit for bit.  Allocates nothing.
    @raise Singular on singular input, leaving [t] unusable until the next
    [factor].
    @raise Invalid_argument unless [a] has [n * n] entries. *)

val solve : t -> float array -> float array
(** [solve lu b] is the [x] with [A x = b]. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Column-wise solve: [solve_mat lu B] is [A^-1 B]. *)

val inverse : t -> Mat.t

val inverse_last_row : t -> float array -> unit
(** [inverse_last_row t out] writes the last row of {!inverse}, bit for
    bit, into [out] (length [n]) without the other rows: per column, the
    forward pass and the first back-substitution step of {!solve}.
    Allocates nothing. *)
