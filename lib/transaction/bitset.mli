(** Fixed-width bitsets over the item universe: the dense counterpart of
    {!Itemset} for workloads where transactions cover a large fraction of
    the universe (dense databases, small universes).  Provides the same
    set algebra with word-parallel operations and popcount-based
    cardinalities. *)

type t
(** A mutable-free bitset of a fixed [width]; items are [0..width-1]. *)

val create : width:int -> t
(** The empty bitset.  @raise Invalid_argument if [width <= 0]. *)

val width : t -> int

val of_itemset : width:int -> Itemset.t -> t
(** @raise Invalid_argument if an item is outside [0..width-1]. *)

val to_itemset : t -> Itemset.t

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool

val bits_per_word : int
(** How many bits each word of the packed representation carries (62: all
    word arithmetic stays inside OCaml's immediate ints). *)

val words_for : int -> int
(** How many words a packed set of the given width occupies:
    [ceil (width / bits_per_word)] (0 for width 0). *)

val last_word_mask : width:int -> int
(** The bits the final word of a packed set of [width] bits actually
    uses: all [bits_per_word] bits when the width is a multiple, the low
    [width mod bits_per_word] bits otherwise.  Every packed
    representation (this module, the vertical engine, the dense PPDMC
    payloads) keeps the bits above its width zero; this is the single
    definition of the mask they zero against.
    @raise Invalid_argument if [width <= 0]. *)

val dense_for : ?cutoff:float -> n:int -> int -> bool
(** Whether a tid-set of this many tids among [n] transactions is held
    as a packed bitmap of [words_for n] words rather than as an
    ascending tid array: its support fraction is at least [cutoff].  The
    default [1 / bits_per_word] is the memory break-even point, where the
    bitmap is no larger than the tid array it replaces.  The one density
    rule of the vertical engine, the report store's freeze and the PPDMC
    file. *)

val popcount : int -> int
(** Population count of a single word: branch-free SWAR, no table.
    Correct for any value a 63-bit OCaml int can hold; the packed
    representations here only ever store [bits_per_word]-bit words.
    Shared with the vertical counting engine ({!Ppdm_mining.Vertical}). *)

val cardinal : t -> int
(** Population count. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val complement : t -> t
(** Every item of [0..width-1] not in the set:
    [mem i (complement t) = not (mem i t)].  Satisfies
    [diff a b = inter a (complement b)] and
    [cardinal (complement t) = width t - cardinal t]. *)

val inter_cardinal : t -> t -> int
(** [cardinal (inter a b)] without allocating the intersection — the hot
    operation of dense partial-support counting. *)

val subset : t -> t -> bool
val equal : t -> t -> bool
val is_empty : t -> bool

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val pp : Format.formatter -> t -> unit
