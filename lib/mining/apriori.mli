(** Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994): the
    level-wise algorithm with candidate generation by self-join and
    downward-closure pruning.  This is both the non-private baseline and
    the skeleton the privacy-preserving miner re-instantiates with
    estimated supports.  Exact counting runs on one engine, the
    word-level tid-sets of {!Vertical}; the {!Ppdm_check.Count} trie
    survives only as the reference the differential checks compare
    against. *)

open Ppdm_data

type counter =
  | Vertical
      (** the exact engine: the database is transposed once into
          {!Vertical} tid-sets and each candidate is answered with one
          word-level intersection. *)
  | Auto
      (** an alias of [Vertical], kept only because the end-to-end
          benchmark ([bench/e2e/batch.ml]) passes it; it goes away once
          that benchmark passes [Vertical]. *)
(** The support-counting engine, as [Ppdm_runtime.Parallel.apriori_mine]'s
    [?counter] names it; both constructors run the one exact engine.  The
    horizontal hash trie of {!Ppdm_check.Count} is not among them: it is
    kept only as the independent reference the differential checks
    compare against. *)

val mine :
  ?max_size:int -> Db.t -> min_support:float -> (Itemset.t * int) list
(** [mine db ~min_support] returns every itemset with support (fraction of
    transactions) at least [min_support], paired with its absolute count,
    in {!Itemset.compare} order.  [max_size] caps the itemset cardinality
    explored (default: unbounded).  It is
    [mine_vertical (Vertical.of_db db)].
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val mine_vertical :
  ?max_size:int -> Vertical.t -> min_support:float -> (Itemset.t * int) list
(** [mine] for a database already in vertical form — the entry point for
    columnar input ({!Vertical.of_colfile}), where the row-major [Db.t]
    never exists: level 1 seeds from the per-item counts and every level
    counts on the loaded tid-sets.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val run_levels :
  ?max_size:int ->
  threshold:int ->
  level1:(unit -> (Itemset.t * int) list) ->
  count_level:(Itemset.t list -> (Itemset.t * int) list) ->
  unit ->
  (Itemset.t * int) list
(** The engine-independent level-wise loop every driver shares: seed with
    [level1 ()], then generate ({!candidates_from}) / count
    ([count_level], which must return {!Itemset.compare}-sorted pairs as
    all engines do) / filter at [threshold], recording the per-level
    metrics and spans, until [max_size] or an empty level.  Exposed so
    other miners cannot drift from {!mine}'s loop: the parallel
    runtime through {!run_vertical_levels}, and the trie reference of the
    differential checks directly. *)

val run_vertical_levels :
  ?max_size:int -> Vertical.t -> min_support:float ->
  count_level:(Itemset.t list -> (Itemset.t * int) list) ->
  (Itemset.t * int) list
(** {!run_levels} on a transposed database: the threshold comes from its
    length and level 1 from its per-item counts.  Every miner, sequential
    and parallel, runs through it.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val candidates_from :
  frequent:Itemset.t list -> size:int -> Itemset.t list
(** Candidate generation used by level [size]: self-join of the frequent
    [(size-1)]-itemsets followed by the downward-closure prune.  Exposed
    for the privacy-preserving miner and for tests. *)

val absolute_threshold : n:int -> min_support:float -> int
(** The absolute count threshold [mine] uses for a database of [n]
    transactions: [ceil(min_support * n)] (with a small tolerance against
    float round-off), never below 1.  Exposed so alternative drivers —
    the parallel runtime's level-wise loop in particular — apply exactly
    the same rule.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val level1 : Db.t -> threshold:int -> (Itemset.t * int) list
(** The frequent single items with their counts, in item order: the seed
    level of the level-wise loop.  Exposed for external drivers. *)
