(** Differential and metamorphic oracles.

    Randomization-based miners fail {e silently}: a wrong transition
    matrix or a biased estimator still produces plausible itemsets.  The
    defenses here never trust a single implementation — they compare
    independent ones (differential), or compare a computation against a
    transformed version of itself whose answer is known to transform
    predictably (metamorphic). *)

open Ppdm_data
open Ppdm

type miner = string * (Db.t -> min_support:float -> (Itemset.t * int) list)
(** A named frequent-itemset miner under test. *)

val trie_apriori :
  ?max_size:int -> Db.t -> min_support:float -> (Itemset.t * int) list
(** The reference Apriori: {!Ppdm_mining.Apriori.run_levels} seeded
    from {!Ppdm_mining.Apriori.level1} and counting every later level
    with the {!Count} trie, a horizontal walk
    that shares no kernel with the vertical engine the library's Apriori
    entry points run on.  Listed as ["apriori"] in {!sequential_miners}. *)

val sequential_miners : ?max_size:int -> unit -> miner list
(** The trie-reference Apriori, Apriori on the vertical engine (loaded
    from rows, loaded from a PPDMC file written by {!Ppdm_data.Colfile.write}
    and decoded by [Vertical.of_colfile], and sampled at fraction 1),
    Eclat, and FP-growth. *)

val parallel_miners : ?max_size:int -> Ppdm_runtime.Pool.t -> miner list
(** The parallel Apriori miners (2-D-grid-sharded vertical loaded from
    rows and from a PPDMC round-trip, and sampled at fraction 1) on the
    given pool, labelled with its job count. *)

val canonical : (Itemset.t * int) list -> string
(** Sorted ({!Itemset.compare}) and printed: the byte-comparable form the
    differential checks compare ("byte-identical sorted output"). *)

val agree : miners:miner list -> Db.t -> min_support:float -> (unit, string) result
(** All miners produce the same {!canonical} string as the first one;
    [Error] names the disagreeing pair and shows both outputs. *)

val brute_force_frequent :
  ?max_size:int -> Db.t -> min_support:float -> (Itemset.t * int) list
(** Reference miner by exhaustive enumeration of every itemset over the
    universe (threshold rule shared through
    {!Ppdm_mining.Apriori.absolute_threshold}).
    @raise Invalid_argument if the universe exceeds 16 items. *)

(** {1 Metamorphic laws} *)

val duplicate_scales :
  Db.t -> index:int -> probes:Itemset.t list -> (unit, string) result
(** Appending a copy of transaction [index] raises the support count of
    exactly the probes contained in it, by exactly one. *)

val permutation_relabels :
  miner -> Db.t -> min_support:float -> perm:int array -> (unit, string) result
(** Relabelling every item through a bijection of the universe relabels
    the mined collection and nothing else (same counts).
    @raise Invalid_argument if [perm] is not a permutation of the
    universe. *)

val padding_noop :
  miner -> Db.t -> min_support:float -> pad:int -> (unit, string) result
(** Growing the universe by [pad] items that occur in no transaction
    leaves the mined collection untouched. *)

(** {1 Server vs sequential} *)

val server_matches_sequential :
  jobs:int ->
  shards:int ->
  clients:int ->
  scheme:Randomizer.t ->
  itemsets:Itemset.t list ->
  data:(int * Itemset.t) array ->
  (unit, string) result
(** Start a real {!Ppdm_server.Serve} on an ephemeral loopback port with
    [jobs] session workers and [shards] ingest shards, stream [data] over
    [clients] concurrent wire connections, and compare the server's
    flushed estimates against one sequential {!Ppdm.Stream} fold of the
    same reports — support, sigma, and observation count must be equal
    {e bit for bit}, at any job and shard count (the sufficient statistic
    is a sum of integer histograms, so sharding must commute). *)

(** {1 Estimator reference} *)

val brute_force_support_estimate :
  scheme:Randomizer.t -> data:(int * Itemset.t) array -> itemset:Itemset.t -> float
(** Independent re-derivation of the recovered support on a single
    transaction-size class: observed partial-support counts by a direct
    scan, the transition matrix from {!Ppdm.Transition}, and the solve by
    a self-contained Gaussian elimination (not
    {!Ppdm_linalg.Lu}) — so a bug in the production solve or the
    count aggregation cannot also hide in the oracle.
    @raise Invalid_argument on empty data, mixed transaction sizes, or a
    transaction size smaller than the itemset. *)

(** {1 Estimator matrix route} *)

val reference_estimate :
  ?population:int ->
  scheme:Randomizer.t ->
  k:int ->
  (int * int array) list ->
  Estimator.t
(** {!Ppdm.Estimator.estimate_from_counts} (or [_sampled] with
    [population]) the way it was first written: per size class the whole
    conditional covariance is built and conjugated by the whole inverse
    (pseudo-inverse when the class is smaller than [k]) with
    {!Ppdm_linalg.Mat.mul}, the classes' vectors and matrices are pooled
    whole, and σ is read at entry [(k, k)].  The library forms only that
    entry; the two must agree bit for bit.  Skips all-zero classes; does
    not validate its input.
    @raise Ppdm.Estimator.Unrecoverable as the library does. *)

val reference_predicted_sigma :
  ?population:int ->
  Ppdm_linalg.Mat.t ->
  k:int ->
  partials:float array ->
  n:int ->
  float
(** {!Ppdm.Estimator.predicted_sigma_of_matrix} by the matrix route: the
    full inverse conjugating the full conditional covariance.
    @raise Ppdm_linalg.Lu.Singular on a singular matrix. *)

(** {1 Transition and operator-design reference} *)

val transition_probability :
  Randomizer.resolved -> k:int -> l:int -> l':int -> float
(** One entry [P(l' | l)] in the direct form: the sum over [j] and [q] of
    [p_j · Hyp(q; m, l, j) · Bin(l' - q; k - l, ρ)], every pmf recomputed
    for the entry.  It shares nothing with {!Ppdm.Transition.basis}.
    [l] must not exceed [min (k, m)]; [l'] ranges over [0..k]. *)

val transition_matrix : Randomizer.resolved -> k:int -> Ppdm_linalg.Mat.t
(** The [(k+1) × (min(k,m)+1)] matrix of {!transition_probability}
    entries: the reference for {!Ppdm.Transition.rect_matrix}. *)

val reference_keep_dist : m:int -> rho:float -> gamma:float -> float array
(** {!Ppdm.Optimizer.keep_dist} for the [Min_sigma_upto] objective with
    [design_for_estimation]'s defaults ([k_max = 3], [n = 100_000],
    [p_bg = 0.02], [support = 0.01]), restated with every vertex scored
    through {!transition_matrix} and {!reference_predicted_sigma}. *)

val reference_design_rho : m:int -> gamma:float -> float
(** The ρ of {!Ppdm.Optimizer.design_for_estimation} at its defaults
    (20-point grid, golden-section refinement), every vertex of every ρ
    scored through {!transition_matrix}. *)

(** {1 Private miner reference} *)

val ppmining_reference :
  max_size:int ->
  sigma_slack:float ->
  sigma_cap:float ->
  scheme:Randomizer.t ->
  data:(int * Itemset.t) array ->
  min_support:float ->
  Ppmining.result
(** The level-wise private miner with no shared counting: every candidate
    (all universe singletons, then the Apriori joins of each level's
    survivors) is counted on its own by a full rescan of [data]
    ({!Ppdm.Estimator.observed_partial_counts}), estimated by
    {!reference_estimate}, and kept under the same slackened-threshold
    and σ-cap filter as {!Ppdm.Ppmining.mine}. *)

val reference_transpose :
  universe:int -> (int * Itemset.t) array -> Reports.frozen
(** The private miner's transpose before {!Ppdm.Reports.freeze}: the
    tagged rows regrouped by original size through a table, each class
    padded with empty rows to whole 62-bit words, and the padded database
    transposed by {!Ppdm_mining.Vertical.of_db}. *)

val same_frozen :
  got:Reports.frozen -> want:Reports.frozen -> (unit, string) result
(** Same sizes, rows and word windows, same length and word count, and
    for every item the same tid-set shape, count and tids; [Error] names
    the first difference. *)

val same_explored :
  got:Ppmining.result -> want:Ppmining.result -> (unit, string) result
(** The two results explored the same itemsets, in the same order, with
    the same estimate and σ bit for bit; [Error] names the first
    difference. *)
