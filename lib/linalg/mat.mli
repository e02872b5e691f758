(** Dense row-major float matrices. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] has entry [f i j] at row [i], column [j]. *)

val of_flat : rows:int -> cols:int -> float array -> t
(** [of_flat ~rows ~cols a] is the matrix whose row-major entries are [a]
    (taken over, not copied).
    @raise Invalid_argument unless [a] has [rows * cols] entries. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be non-empty and of equal length. *)

val to_arrays : t -> float array array

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product; inner dimensions must agree. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val col : t -> int -> Vec.t
val row : t -> int -> Vec.t

val outer : Vec.t -> Vec.t -> t
(** Outer product [u v^T]. *)

val diag : Vec.t -> t
(** Diagonal matrix from a vector. *)

val max_abs_diff : t -> t -> float
(** L-infinity distance between same-shape matrices. *)

val norm_inf : t -> float
(** Maximum absolute row sum (the operator infinity-norm). *)

val pp : Format.formatter -> t -> unit
