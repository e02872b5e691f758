(** Roaring-style compressed tid-set containers.

    A column is one item's tid-set over [n] transactions, cut into
    fixed-width blocks of {!block_words} 62-bit words ({!block_bits} =
    3968 tids).  Each block independently holds the cheapest of three
    physical containers by serialized size — a dense bitmap (8 bytes per
    word), packed sorted bit offsets (2 bytes each), or run-length
    intervals (4 bytes per run) — so the randomization-induced dense
    regions compress as runs while sparse tails stay as short offset
    lists.  Empty blocks store nothing.

    This is the on-disk form ({!Colfile}): nothing counts on the
    containers.  A loader decodes each column once, to ascending tids
    ({!to_tids}) or a packed bitmap ({!to_words}), and counts on those.

    The block type is exposed so the on-disk codec ({!Colfile}) can
    serialize containers verbatim and the test harness can assert
    representation choices; treat the arrays as immutable. *)

val block_words : int
(** Words per block (64). *)

val block_bits : int
(** Tids per block: [block_words * Bitset.bits_per_word] (3968). *)

type block =
  | Empty
  | Dense of int array
      (** One 62-bit word per block word; tail bits above [n] zero. *)
  | Sparse of int * int array
      (** [(card, packed)]: [card] strictly increasing block-relative bit
          offsets, packed four 16-bit values per int, lowest first;
          unused packing positions zero. *)
  | Runs of int array
      (** Half-open [\[start, stop)] intervals packed as
          [(start lsl 16) lor stop]; strictly ascending, disjoint,
          non-adjacent. *)

type t
(** One item's compressed tid-set.  Immutable once built; safe to share
    across domains. *)

val length : t -> int
(** Transactions covered: tids range over [0..length-1]. *)

val cardinal : t -> int
val word_count : t -> int
(** [Bitset.words_for (length t)]. *)

val blocks : t -> block array
(** The physical containers (block [b] covers tids
    [b*block_bits .. (b+1)*block_bits - 1]).  Do not mutate. *)

(** {1 Construction} *)

val of_tids : n:int -> int array -> t
(** From strictly increasing tids in [0..n-1].  Container choice per
    block is deterministic (serialized size, ties prefer offsets over
    runs over dense).
    @raise Invalid_argument on out-of-range or non-increasing tids. *)

val of_words : n:int -> int array -> t
(** From a packed bitmap of [Bitset.words_for n] words.
    @raise Invalid_argument on a length mismatch or set bits above [n]. *)

val of_blocks : n:int -> block array -> t
(** Validating constructor for the on-disk decoder: checks every
    container invariant (lengths, ascending offsets, disjoint ascending
    non-adjacent runs, values below [n], zero padding) and recomputes the
    cardinality.  @raise Invalid_argument on any violation. *)

(** {1 Inspection} *)

type rep = R_empty | R_dense | R_sparse | R_run

val rep : t -> int -> rep
(** Which container block [b] chose. *)

val mem : t -> int -> bool
(** @raise Invalid_argument if the tid is outside [0..length-1]. *)

val iter_tids : (int -> unit) -> t -> unit
(** Ascending. *)

val to_tids : t -> int array
val equal : t -> t -> bool

(** {1 Packed-value helpers (for the codec)} *)

val sparse_get : int array -> int -> int
(** Decode offset [i] from a packed offsets array. *)

val pack_offsets : int array -> int array
val run_start : int -> int
val run_stop : int -> int

val make_run : start:int -> stop:int -> int
(** @raise Invalid_argument unless [0 <= start < stop <= block_bits]. *)

val block_of_offsets : wib:int -> int array -> block
(** The deterministic container chooser for one block: ascending
    block-relative bit offsets to the size-cheapest container, where the
    block spans [wib] words (64, or fewer for the final block).  The
    streaming converter encodes each finished block through this. *)

val n_blocks_for : int -> int
(** Blocks a column over [n] transactions occupies. *)

val words_in_block : n:int -> int -> int
(** Words block [b] of an [n]-transaction column spans (the final block
    may be short). *)

(** {1 Expansion} *)

val write_into : t -> int array -> wlo:int -> whi:int -> unit
(** Expand the word window [wlo, whi) into a plain bitmap [dst] indexed
    by global word (every window word is written).
    @raise Invalid_argument on a window outside [0, word_count]. *)

val to_words : t -> int array
(** [write_into] over the full width, freshly allocated. *)
