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
(** {!Ppdm.Estimator.estimate_from_counts} (plain and sampled) and
    {!Ppdm.Estimator.predicted_sigma_of_matrix} against
    {!Oracle.reference_estimate} and {!Oracle.reference_predicted_sigma}
    on [max 300 (10 count)] random cases: uniform, cut-and-paste and
    optimized operators, [k = 1..3], size classes [0..12] (so classes
    smaller than [k]), all-zero classes, and sampled populations.
    Support, σ, every partial and both counts must agree bit for bit, and
    an unrecoverable class must fail both routes alike. *)

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

val operator_design_differential :
  max_m:int -> rhos:float list -> design_max_m:int -> (unit, string) result
(** The operator design against {!Oracle}'s direct transition form, for
    every [m <= max_m], γ ∈ {3, 9, 19, 50} and ρ in [rhos], bit for
    bit: the basis-built matrix of the chosen keep distribution
    equals {!Oracle.transition_matrix} at every [k <= min (3, m)];
    {!Ppdm.Optimizer.keep_dist} picks the vertex
    {!Oracle.reference_keep_dist} picks; and for [m <= design_max_m] the
    designed ρ equals {!Oracle.reference_design_rho}. *)
