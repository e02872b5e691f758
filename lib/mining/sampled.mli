(** Sampled support counting on the vertical engine.

    Counts candidates over a deterministic seeded uniform sample of the
    transactions instead of all of them, trading exactness for speed: the
    estimator already treats recovered supports as noisy ({!Ppdm} folds
    randomization covariance into every estimate), so a second, known
    noise source with finite-population-corrected variance composes
    cleanly — see [Estimator.sampling_covariance].

    The sampling design is {e word-window cluster sampling}: the tid
    range is partitioned into windows of {!default_window_words} bitmap
    words (62 tids each), and a seeded partial Fisher-Yates shuffle
    selects a uniform subset of windows covering fraction [F] of them.
    Adjacent selections are merged into runs.  A sampled count is the
    exact count restricted to the runs: {!raw_counts} sums
    {!Vertical.count_into} over them, and the parallel miner
    ([Ppdm_runtime.Parallel]) hands them to the same grid planner that
    exact counting gives the single run [\[0, word_count)].  A plan at
    [F = 1.0] is that single run, so its counts are byte-identical to
    the exact vertical count.  Per-run dispatch makes small fractions
    cost more per counted word than the exact count (EXPERIMENTS B9).

    Raw sample counts are scaled to full-database equivalents with
    round-half-up integer arithmetic, so the level-wise miners compare
    them against their usual absolute thresholds unchanged. *)

val default_window_words : int
(** Window granularity in 62-bit words (4 words = 248 tids): small enough
    that modest fractions still spread across the database, large enough
    to amortize the per-window candidate walk. *)

type plan = {
  population : int;  (** transactions in the full database *)
  sample : int;  (** tids actually covered by [runs] *)
  fraction : float;  (** requested sampling fraction [F] *)
  seed : int;
  runs : (int * int) array;
      (** merged, ascending, disjoint [\[lo, hi)] word ranges *)
}

val plan :
  ?window_words:int ->
  n:int ->
  word_count:int ->
  fraction:float ->
  seed:int ->
  unit ->
  plan
(** Build the sampling plan for a database of [n] transactions spanning
    [word_count] bitmap words ({!Vertical.word_count}).  At least one
    window is always selected; [fraction = 1.0] (or a database of at most
    one window) selects everything.  Deterministic in all arguments.
    @raise Invalid_argument if [fraction] is outside (0,1], the geometry
    is negative or inconsistent, or [window_words <= 0]. *)

val is_exhaustive : plan -> bool
(** Whether the plan covers every transaction (no sampling noise). *)

val scale_count : plan -> int -> int
(** Full-database equivalent of one raw sample count, round-half-up.
    The identity on exhaustive plans. *)

val scale_counts : plan -> int array -> int array
(** {!scale_count} over a batch (returns the input array unchanged for
    exhaustive plans). *)

val raw_counts :
  ?scratch:Vertical.scratch -> Vertical.t -> plan -> Vertical.prepared ->
  int array
(** Unscaled sample counts in prepared order: the sum of
    {!Vertical.count_into} over the plan's runs.  Integer sums do not
    depend on how the runs are cut, which is what lets the parallel
    driver cut them into grid cells. *)

val support_counts :
  ?scratch:Vertical.scratch ->
  Vertical.t ->
  plan ->
  Ppdm_data.Itemset.t list ->
  (Ppdm_data.Itemset.t * int) list
(** [prepare] + {!raw_counts} + scaling + [assemble]: the sampled
    counterpart of {!Vertical.support_counts}, in the same output shape.
    @raise Invalid_argument if the plan was built for a database of a
    different size, or on an empty candidate itemset. *)

val sample_rows : 'a array -> fraction:float -> seed:int -> 'a array
(** A seeded uniform sample of [round (fraction * n)] rows (at least
    one), without replacement and in input order, drawn like the plan's
    windows; the input itself when that is every row.  [recover]'s
    sampling design: tagged reports have no tid geometry, so it samples
    rows where the miners sample word windows. *)
