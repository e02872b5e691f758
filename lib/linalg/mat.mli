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

val flat : t -> float array
(** The row-major entries, shared with the matrix (not copied): the
    inverse of {!of_flat}. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

val mul : t -> t -> t
(** Matrix product; inner dimensions must agree. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product. *)

val col : t -> int -> float array

val max_abs_diff : t -> t -> float
(** L-infinity distance between same-shape matrices. *)

val norm_inf : t -> float
(** Maximum absolute row sum (the operator infinity-norm). *)
