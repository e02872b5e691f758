(** 2-D work-grid planning: cut a (word-run x candidate-range)
    rectangle into cache-sized cells for the vertical counting engine.

    The word axis is a list of runs of bitmap words (tid ranges).  Exact
    counting passes the single run [\[0, n_words)]; sampled counting
    ({!Ppdm_mining.Sampled}) passes its plan's runs, so a sampled count
    is the exact grid count restricted to the sample.  Each run is cut
    into windows of at most [word_chunk] words, and each window is
    crossed with a candidate sub-range; counting a cell yields partial
    counts for its candidates over its tids, and because counts over
    disjoint tid windows are sums of non-negative integers, adding every
    cell's partials into a totals array — in any order — gives the
    counts over the runs exactly.  The plan is a pure function of the
    runs, the batch size and the explicit chunk overrides, {e never} of
    the job count (the {!Pool} determinism contract), so the sequential
    fallback and the pool at any job count run the same cells and
    produce bit-identical output.

    Sizing (see DESIGN.md §14): word windows target an L2-cache footprint
    — three live dense windows of 8-byte words in half the budget, i.e.
    [l2_bytes / 48] words — floored at 256 words and never cutting the
    runs' words finer than 64 windows; candidate columns cap the
    per-cell partial array at 4096 candidates and keep batches under 512
    candidates in one column. *)

type cell = { word_lo : int; word_hi : int; cand_lo : int; cand_hi : int }
(** Half-open on both axes: words [word_lo, word_hi), candidate indices
    [cand_lo, cand_hi) into the prepared batch. *)

type t = { word_chunk : int; cand_chunk : int; cells : cell array }
(** The resolved chunk sizes and the cells in column-major order (all
    windows of candidate column 0, in run order, then column 1, ...). *)

val default_l2_bytes : int
(** Per-core L2 budget assumed when [?l2_bytes] is omitted (1 MiB). *)

val word_chunk_for : ?l2_bytes:int -> n_words:int -> unit -> int
(** The default word-window width: [max 256 (min (l2_bytes / 48)
    (ceil (n_words / 64)))].
    @raise Invalid_argument if [l2_bytes <= 0]. *)

val cand_chunk_for : n_candidates:int -> int
(** The default candidate-column width:
    [max 512 (min 4096 (ceil (n_candidates / 16)))]. *)

val plan :
  ?l2_bytes:int ->
  ?word_chunk:int ->
  ?cand_chunk:int ->
  runs:(int * int) array ->
  n_candidates:int ->
  unit ->
  t
(** Cut the rectangle of the [\[lo, hi)] word [runs] by candidates
    [\[0, n_candidates)].  The default [word_chunk] is {!word_chunk_for}
    of the runs' total word count.  Cells partition the rectangle
    exactly: every (word, candidate) pair in it lands in exactly one
    cell, and a rectangle with no words or no candidates has no cells.
    @raise Invalid_argument if the runs are not non-negative, ascending
    and disjoint, if [n_candidates < 0], or if an explicit chunk is
    non-positive. *)
