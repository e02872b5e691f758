(** The in-process verification suite behind [ppdm selftest].

    A curated pass over all three pillars of the harness — generators,
    differential/metamorphic oracles, statistical assertions — plus the
    fault-injection scenarios and the parser fuzz round-trips.  It runs
    against the installed code in the current process (no test runner,
    no build tree), so a production binary can smoke-check itself; the
    CLI maps a clean report to exit code 0.

    Runtime scales linearly with [count]; the default
    ({!Property.default_count}) finishes in a few seconds, [~count:25]
    is a sub-second smoke. *)

type outcome = { name : string; ok : bool; detail : string }
(** [detail] is empty for a pass and carries the failure report — seed,
    shrunk counterexample, reason — for a failure. *)

type report = { passed : int; failed : int; outcomes : outcome list }

val run : ?count:int -> ?seed:int -> ?log:(string -> unit) -> unit -> report
(** Run every check.  [count] is the per-property case count (default
    [$PPDM_CHECK_COUNT] or 100); statistical sample sizes scale with it.
    [seed] (default 42) makes the whole run deterministic.  [log] is
    called with one line per check as it completes (default: silent). *)

val ok : report -> bool
(** [failed = 0]. *)

val estimator_kernel_differential : seed:int -> count:int -> (unit, string) result
(** {!Ppdm.Estimator.estimate_from_counts} and
    {!Ppdm.Estimator.predicted_sigma_of_matrix} against
    {!Oracle.reference_estimate} and {!Oracle.reference_predicted_sigma}
    on [max 300 (10 count)] random cases: uniform, cut-and-paste and
    optimized operators, [k = 1..3], size classes [0..12] (so classes
    smaller than [k]) and all-zero classes.
    Support, σ, every partial and the count must agree bit for bit, and
    an unrecoverable class must fail both routes alike. *)

val recover_route_differential : seed:int -> count:int -> (unit, string) result
(** [recover]'s streamed route (a tagged file folded by
    {!Ppdm_data.Io.read_tagged} into one {!Ppdm.Stream}) against
    {!Ppdm.Estimator.estimate} on the same rows and against
    {!Oracle.reference_estimate} on histograms counted size by size, on
    [max 20 count] randomized databases (sizes 0..8, so classes smaller
    than [k]): uniform, cut-and-paste and optimized operators, [k = 1..4].
    Support, σ, every partial and N must agree bit for bit, and an
    unrecoverable class must fail all three alike. *)

val route_parity_differential : seed:int -> count:int -> (unit, string) result
(** One report store drawn by {!Ppdm_runtime.Parallel.randomize}, read
    by the three server routes of the CLI: {!Ppdm.Ppmining.mine_reports}
    with no σ cap, so that every probe is explored ([private]); one
    {!Ppdm.Stream} folded over {!Ppdm.Reports.iter_rows} ([recover]);
    and the rows cut into client
    slices, routed round-robin onto {!Ppdm_server.Shard}s, folded there
    and read through {!Ppdm_server.Shard.merge_into} ([serve]).  On
    [max 20 (count / 2)] random databases (empty rows, item 0 and item
    [universe - 1]), under uniform, cut-and-paste and optimized
    operators, every probe ([k = 1..3]) must get the same support and σ
    bit for bit by all three, and the same N from [recover] and
    [serve]. *)

val shard_fold_differential : seed:int -> count:int -> (unit, string) result
(** {!Ppdm_server.Shard}'s fold by item against one
    {!Ppdm.Stream.observe} per tracked itemset, count for count
    ({!Ppdm.Stream.counts} and {!Ppdm.Stream.observed}), on [count]
    random cases: universes 1..40, tracked itemsets that overlap and
    repeat (item 0, item [universe - 1], both), reports that are empty,
    full or random with sizes up to the universe, 1..4 shards folding on
    their own domains in random batches.  The shards are merged once
    mid-stream and once at the end; a shard that folded nothing merges
    as an empty statistic. *)

val private_miner_differential : seed:int -> (unit, string) result
(** {!Ppdm.Ppmining.mine} against {!Oracle.ppmining_reference} on
    randomized databases over universes 60 and 1500, under cut-and-paste,
    uniform and optimized operators, at [max_size] 1 to 4; the databases
    include empty transactions and a size class holding a single row.
    Explored itemsets, estimates and σ must agree bit for bit. *)

val report_store_differential :
  seed:int -> Ppdm_runtime.Pool.t list -> (unit, string) result
(** {!Ppdm_runtime.Parallel.randomize} at chunk sizes 1, 7, 64 and 1024
    on every given pool, on a database with empty rows, a one-row size
    class and a class of exactly 124 rows, under an optimized operator
    (universe 60, dense items), cut-and-paste at [rho = 0.001] (universe
    1500, sparse and dense items) and an operator that erases every
    report.  The generator must advance by one draw,
    {!Ppdm_runtime.Parallel.randomize_db_tagged} must return sequential
    {!Ppdm.Randomizer.apply} over the chunks' derived children, and
    {!Ppdm.Reports.freeze} of the store must equal
    {!Oracle.reference_transpose} of those rows in windows, shapes and
    tids. *)

val writer_differential :
  seed:int -> count:int -> Ppdm_runtime.Pool.t -> (unit, string) result
(** The block writers of {!Ppdm_data.Io} against the [Printf] writers
    kept in {!Oracle}, byte for byte: plain, FIMI, tagged, and tagged
    from a {!Ppdm.Reports} store ({!Ppdm_data.Io.write_tagged_rows} over
    {!Ppdm.Reports.iter_rows}), on [max 3 (count / 10)] random databases
    with empty rows, item 0 and ids of 1 to 7 digits, on a row longer
    than {!Ppdm_data.Io.block_size}, and on files of exactly whole
    blocks in each format.  Also the report store
    {!Ppdm_runtime.Parallel.randomize} fills, written, against
    {!Oracle.reference_write_tagged} of
    {!Ppdm_runtime.Parallel.randomize_db_tagged} at the same seed (the
    route [randomize] writes against the one it had), under an optimized
    and a sparse cut-and-paste operator. *)

val vertex_scorer_differential :
  exhaustive_m:int ->
  max_m:int ->
  gammas:float list ->
  rhos:float list ->
  (unit, string) result
(** {!Ppdm.Optimizer.score_vertex} against
    {!Oracle.reference_vertex_scorer} (the keep distribution's
    {!Ppdm.Transition.weighted_sum} scored by
    {!Oracle.reference_predicted_sigma}), bit for bit, under
    [design_for_estimation]'s objective, for every [m <= max_m], γ in
    [gammas] and ρ in [rhos]: every vertex for [m <= exhaustive_m], and
    above it every threshold vertex and each of its single flips.  A
    vertex whose matrix is singular scores [neg_infinity] by both, and
    at least one must be met. *)

val operator_design_differential :
  max_m:int -> rhos:float list -> design_max_m:int -> (unit, string) result
(** The operator design against {!Oracle}'s direct transition form, for
    every [m <= max_m], γ ∈ {3, 9, 19, 50} and ρ in [rhos], bit for
    bit: the basis-built matrix of the chosen keep distribution
    equals {!Oracle.transition_matrix} at every [k <= min (3, m)];
    {!Ppdm.Optimizer.keep_dist} picks the vertex
    {!Oracle.reference_keep_dist} picks; and for [m <= design_max_m] the
    designed ρ equals {!Oracle.reference_design_rho}. *)
