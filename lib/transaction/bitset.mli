(** The packed tid-set layout and its one builder.

    Every vertical tid-set in the repo (the vertical engine's, the
    private miner's report store's, the PPDMC file's) is, per item,
    either a bitmap of [words_for n] words carrying [bits_per_word] bits
    each (bit [tid mod bits_per_word] of word [tid / bits_per_word], the
    bits above [n] zero) or an array of its tids.  {!dense_for} picks the
    shape from the item's count, and a {!builder} fills every item's
    payload from rows in one pass, so the layout is written down once. *)

val bits_per_word : int
(** How many bits each word of the packed representation carries (62: all
    word arithmetic stays inside OCaml's immediate ints). *)

val words_for : int -> int
(** How many words a packed set of the given width occupies:
    [ceil (width / bits_per_word)] (0 for width 0). *)

val last_word_mask : width:int -> int
(** The bits the final word of a packed set of [width] bits actually
    uses: all [bits_per_word] bits when the width is a multiple, the low
    [width mod bits_per_word] bits otherwise.  Every bitmap (the vertical
    engine's, the dense PPDMC payloads) keeps the bits above its width
    zero; this is the single definition of the mask they zero against.
    @raise Invalid_argument if [width <= 0]. *)

val dense_for : ?cutoff:float -> n:int -> int -> bool
(** Whether a tid-set of this many tids among [n] transactions is held
    as a packed bitmap of [words_for n] words rather than as a tid
    array: its support fraction is at least [cutoff].  The default
    [1 / bits_per_word] is the memory break-even point, where the bitmap
    is no larger than the tid array it replaces.  The one density rule
    of the vertical engine, the report store's freeze and the PPDMC
    file. *)

val popcount : int -> int
(** Population count of a single word: branch-free SWAR, no table.
    Correct for any value a 63-bit OCaml int can hold; the packed
    representations here only ever store [bits_per_word]-bit words.
    Shared with the vertical counting engine ({!Ppdm_mining.Vertical}). *)

(** {2 Builder} *)

type builder
(** The payloads of a universe of items over [n] transactions, being
    filled row by row.  Item [i] holds [counts.(i)] tids: its payload is
    a zeroed [words_for n]-word bitmap when [dense_for ?cutoff ~n
    counts.(i)], an exact-size tid array otherwise. *)

val builder : ?cutoff:float -> n:int -> int array -> builder
(** [builder ?cutoff ~n counts] allocates the payloads; [counts] is read,
    never written, and must stay unchanged until {!finish}. *)

val fill_row : builder -> tid:int -> int array -> off:int -> len:int -> unit
(** [fill_row b ~tid items ~off ~len] puts row [tid] into the tid-set of
    each of [items.(off .. off + len - 1)]: it sets the row's bit in a
    bitmap and appends [tid] to a tid array.  Tid arrays keep the order
    the rows are fed in, so a caller that wants them ascending feeds
    ascending tids or sorts afterwards.
    @raise Invalid_argument on a tid outside [\[0, n)] or a sparse item
    fed more rows than its count. *)

val finish : builder -> int array array
(** The payloads, indexed by item, once every item holds exactly its
    count: the rows a tid array was fed, the bits set in a bitmap (by
    popcount, so a row fed twice does not pass).
    @raise Invalid_argument on an item short of (or, for a bitmap, at
    odds with) its count. *)
