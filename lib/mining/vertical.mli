(** Vertical bitmap counting engine: word-level support counting for the
    level-wise miners.

    The horizontal layouts pay per-transaction costs — the reference trie
    {!Ppdm_check.Count} walks a hash trie per transaction per level, and
    a plain Eclat merges sorted tid arrays element by element.  This
    engine transposes the database {e once} into per-item {e tid-sets}
    (the set of transaction indices containing the item) in one of two
    adaptive representations chosen by item density:

    - {b dense}: one bit per transaction, packed into 62-bit words
      ({!Ppdm_data.Bitset.bits_per_word}) — intersections are word-wide
      [land]s and supports are SWAR popcounts;
    - {b sparse}: a strictly increasing tid array — rare items stay small,
      and sparse∧dense intersections are per-tid probes.

    A candidate's support is the cardinality of the intersection of its
    items' tid-sets.  Candidate batches are counted through reusable
    {!scratch} buffers with the shared (k-1)-prefix intersection reused
    across a sorted candidate run, so steady-state counting performs one
    intersection per candidate and {e no per-candidate allocation}.

    Counting can be restricted to a window of bitmap words
    ([word_lo..word_hi)], i.e. a tid range) and to a sub-range of the
    prepared candidate batch ([cand_lo..cand_hi)]): partial counts over
    disjoint windows sum to the full count, and candidate columns simply
    concatenate — which is how the parallel runtime shards the engine
    over a 2-D (tid-window x candidate-range) grid without changing any
    result.  Windows are also the only sampled-counting kernel: a
    {!Sampled} count is this windowed count summed over the sample's
    word runs, so the engine has one counting loop for both. *)

open Ppdm_data

type t
(** The vertical form of one database: per-item tid-sets plus item
    counts.  Immutable once built; safe to share across domains. *)

val of_db : ?dense_cutoff:float -> Db.t -> t
(** Transpose an in-RAM database (one pass after {!Db.item_counts}).  An
    item goes dense when its support fraction is at least [dense_cutoff];
    the default [1/62] is the memory break-even point, where the bitmap
    is no larger than the tid array it replaces.
    @raise Invalid_argument if [dense_cutoff] is negative (or NaN). *)

val of_colfile : Colfile.t -> t
(** Load from an open columnar file: every PPDMC column is decoded once,
    as it is read, into the dense or sparse tid-set that {!of_db} (at the
    default cutoff) picks for that item, so the result equals [of_db] of
    the same data in shapes, {!resident_bytes} and counts.  The row-major
    database is never materialized; at most one decoded column is alive
    besides the result.  Emits the ["columnar.load"] span and the
    [vertical.load.*] counters when observation is enabled.
    @raise Colfile.Error on corrupt container data. *)

val dense_for : n:int -> int -> bool
(** Whether an item with this many tids among [n] transactions is stored
    as a bitmap: the rule {!of_db} applies at its default cutoff. *)

val of_payloads : n:int -> counts:int array -> int array array -> t
(** Adopt per-item payloads built elsewhere, without copying: item [i]
    holds [counts.(i)] tids, and its payload is its
    [ceil (n / 62)]-word bitmap (tail bits zero) when
    [dense_for ~n counts.(i)], its ascending tid array otherwise.  Only
    the lengths are checked; the result then equals {!of_db} of the same
    rows.  Emits the [vertical.load.*] counters as {!of_db} does.
    @raise Invalid_argument on a payload count or length that disagrees
    with [counts]. *)

val to_db : t -> Db.t
(** Transpose back to the row-major form (exact inverse of {!of_db} up to
    representation), for pipelines that need a [Db.t] — e.g. randomizing
    a database that was loaded from a columnar file. *)

val resident_bytes : t -> int
(** Bytes held by the tid-set payloads: 8 per bitmap word or tid. *)

val length : t -> int
(** Number of transactions (the tid range is [0..length-1]). *)

val universe : t -> int
val word_count : t -> int
(** Number of 62-bit words a dense tid-set spans: [ceil (length / 62)]. *)

val item_count : t -> int -> int
(** Support count of a single item (0 for an item outside the universe is
    {e not} provided here — the item must be in [0..universe-1]). *)

val dense_items : t -> int
val sparse_items : t -> int
(** How many items landed in each representation. *)

(** {2 Tid-sets}

    The adaptive tid-set itself, exposed so the reference Eclat miner
    ({!Ppdm_check.Eclat}) can run its depth-first search on the same
    hybrid representation:
    dense∧dense is a word-wide AND, sparse∧dense a probe, sparse∧sparse
    the classic sorted merge. *)

type tidset

val item_tidset : t -> int -> tidset
val tidset_cardinal : tidset -> int

val tidset_is_dense : tidset -> bool

val tidset_tids : tidset -> int array
(** The ascending tids, materialized (fresh array). *)

val tidset_of_tids : n:int -> dense:bool -> int array -> tidset
(** Build a tid-set over [n] transactions from strictly increasing tids in
    [0..n-1], forcing the given representation — the test harness uses
    this to cross-check every intersection kernel pair.
    @raise Invalid_argument on out-of-range or non-increasing tids. *)

val inter_tidsets : tidset -> tidset -> tidset * int
(** Intersection and its cardinality.  The result representation is
    adaptive: it goes sparse when that is the smaller encoding, so deep
    Eclat chains degrade from word ANDs to cheap probes as tid-sets
    shrink.  Cardinalities (and therefore all mined counts) never depend
    on representation choices.
    @raise Invalid_argument on dense operands of different word counts. *)

(** {2 Batch counting} *)

type scratch
(** Reusable intersection buffers (one per prefix depth, grown on
    demand).  Not shared between domains: one scratch per worker. *)

val make_scratch : t -> scratch

type prepared
(** A candidate batch, sorted by {!Itemset.compare} and deduplicated —
    the order that makes shared prefixes adjacent, and the order of every
    result list. *)

val prepare : Itemset.t list -> prepared
(** @raise Invalid_argument on an empty candidate (as the reference
    trie, {!Ppdm_check.Count}, does). *)

val prepared_length : prepared -> int

val count_into :
  ?scratch:scratch -> t -> ?word_lo:int -> ?word_hi:int -> ?cand_lo:int ->
  ?cand_hi:int -> prepared -> int array
(** Support counts for candidates [cand_lo..cand_hi) (defaults: the whole
    batch) in [prepared] order, restricted to transactions whose tid
    falls in words [word_lo..word_hi) (defaults: the full database).  The
    result has [cand_hi - cand_lo] entries.  Counts over disjoint windows
    sum to the full-window counts and candidate columns concatenate — the
    two sharding identities the parallel 2-D grid relies on.  A candidate
    containing an item outside the universe counts 0, as with the trie.
    @raise Invalid_argument on a window outside [0, word_count] or a
    candidate range outside [0, prepared_length]. *)

val assemble : prepared -> int array -> (Itemset.t * int) list
(** Pair a {!count_into} result (or a sum of them) back with its
    itemsets, in {!Itemset.compare} order — the exact shape the
    reference trie ({!Ppdm_check.Count}) returns.
    @raise Invalid_argument on a length mismatch. *)

val support_counts :
  ?scratch:scratch -> t -> Itemset.t list -> (Itemset.t * int) list
(** [prepare] + [count_into] + [assemble]: byte-identical to the
    reference trie's support counts ({!Ppdm_check.Count}) on the same
    database. *)

val support_count : ?scratch:scratch -> t -> Itemset.t -> int
(** Support of a single itemset.
    @raise Invalid_argument if it is empty. *)
