(** In-memory transaction databases.

    A database is an immutable array of transactions (itemsets) over a
    fixed item universe [{0, ..., universe-1}].  The universe size matters:
    the randomization operators insert noise items drawn from the
    complement of a transaction, so their privacy and recovery behaviour
    depends on [universe]. *)

type t

val create : universe:int -> Itemset.t array -> t
(** Adopts the array (no copy).  @raise Invalid_argument if an item is
    outside the universe or [universe <= 0]. *)

val universe : t -> int
val length : t -> int

val get : t -> int -> Itemset.t

val transactions : t -> Itemset.t array
(** The underlying array; treat as read-only. *)

val iter : (Itemset.t -> unit) -> t -> unit
val iteri : (int -> Itemset.t -> unit) -> t -> unit

val map : (Itemset.t -> Itemset.t) -> t -> t
(** Transaction-wise map; keeps the universe. *)

val append : t -> t -> t
(** Concatenation; universes must agree. *)

val support_count : t -> Itemset.t -> int
(** Number of transactions containing the given itemset. *)

val support : t -> Itemset.t -> float
(** [support_count] as a fraction of [length]. *)

val partial_support_counts : t -> Itemset.t -> int array
(** [partial_support_counts db a] has length [cardinal a + 1]; entry [l]
    counts transactions [t] with [|t ∩ a| = l].  This is the observable
    the randomized-support estimator works from. *)

val item_counts : t -> int array
(** Per-item occurrence counts, indexed by item id (length [universe]). *)

val size_histogram : t -> (int * int) list
(** [(size, how many transactions have that size)], increasing in size. *)

val avg_size : t -> float
(** Average transaction size; 0 for the empty database. *)

val density : t -> float
(** Fraction of the item-transaction matrix that is set:
    [Σ|t| / (length * universe)]; 0 for the empty database. *)

val item_frequency_quantiles : t -> float list -> float list
(** Quantiles of the per-item support fractions, each [q] in [0,1] by
    linear interpolation between order statistics; useful to
    characterize the popularity skew of a workload.  Requires a
    non-empty database. *)
