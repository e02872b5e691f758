(** LU decomposition with partial pivoting, and the linear solvers built on
    it.  This is the numerical engine behind the partial-support estimator
    ([s = P^-1 s'] and its covariance conjugation). *)

type t
(** A factorization [P A = L U] of a square matrix [A]. *)

exception Singular
(** Raised when a pivot is exactly zero: the matrix is singular to working
    precision. *)

val decompose : Mat.t -> t
(** Factorize a square matrix.  @raise Singular on singular input and
    [Invalid_argument] on non-square input. *)

val solve : t -> float array -> float array
(** [solve lu b] is the [x] with [A x = b]. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Column-wise solve: [solve_mat lu B] is [A^-1 B]. *)

val inverse : t -> Mat.t

val inverse_last_row : t -> float array
(** The last row of {!inverse}, bit for bit, without the other rows: per
    column, the forward pass and the first back-substitution step of
    {!solve}. *)

val det : t -> float
(** Determinant of the factorized matrix. *)

val cond_inf_estimate : Mat.t -> float
(** [cond_inf_estimate a] is [||A||_inf * ||A^-1||_inf], the exact
    infinity-norm condition number (computed via the explicit inverse;
    intended for the small matrices this library manipulates).
    @raise Singular on singular input. *)
