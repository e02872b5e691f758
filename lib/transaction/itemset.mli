(** Itemsets: immutable sets of items, an item being a non-negative
    integer id.  The representation is a strictly increasing int array,
    which makes the set operations the miners and randomizers run in tight
    loops (intersection size, subset test, merge) linear-time and
    allocation-light. *)

type t
(** An immutable itemset. *)

type item = int

val empty : t
val is_empty : t -> bool
val singleton : item -> t

val of_list : item list -> t
(** Sorts and deduplicates.  @raise Invalid_argument on a negative item. *)

val of_array : item array -> t
(** Sorts and deduplicates a copy; the argument is not modified. *)

val of_sorted_array_unchecked : item array -> t
(** Adopts the array without copying.  The caller promises it is strictly
    increasing and non-negative; violated promises break the set
    operations silently.  Used on hot paths only. *)

val to_list : t -> item list
val to_array : t -> item array
(** Fresh array, strictly increasing. *)

val unsafe_to_array : t -> item array
(** The underlying array itself, no copy.  Strictly read-only: mutating it
    breaks every set operation silently.  For hot per-transaction loops
    (trie walks, vertical loads) where {!to_array}'s defensive copy per
    call dominates. *)

val cardinal : t -> int
val mem : item -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true iff every item of [a] is in [b]. *)

val union : t -> t -> t
val diff : t -> t -> t

val inter_size : t -> t -> int
(** [inter_size a b = cardinal (inter a b)] without building the set. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order: by cardinality, then lexicographic.  Suitable for maps. *)

val hash : t -> int

val fold : (item -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (item -> unit) -> t -> unit

val nth : t -> int -> item
(** [nth s i] is the [i]-th smallest item.  @raise Invalid_argument if out
    of range. *)

val subsets_of_size : t -> int -> t list
(** All sub-itemsets of the given cardinality (used by tests and by the
    rule generator on small sets). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
