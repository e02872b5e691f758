(** Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994): the
    level-wise algorithm with candidate generation by self-join and
    downward-closure pruning.  This is both the non-private baseline and
    the skeleton the privacy-preserving miner re-instantiates with
    estimated supports. *)

open Ppdm_data

type counter =
  | Trie
  | Vertical
  | Auto
  | Sampled of { fraction : float; seed : int }
      (** count levels >= 2 on a deterministic uniform word-window sample
          covering [fraction] of the tid range (see {!Sampled}); counts
          are scaled to full-database equivalents, so thresholds apply
          unchanged, but they are {e estimates} — compose the sampling
          variance downstream.  [fraction = 1.0] is byte-identical to
          [Vertical]. *)
(** Which support-counting engine the level loop runs on.  [Trie] is the
    horizontal hash-trie of {!Count} (one walk per transaction per
    level); [Vertical] transposes the database once into {!Vertical}
    tid-sets and answers each candidate with one word-level intersection;
    [Auto] picks [Vertical] whenever the database fills at least one
    bitmap word (62 transactions) and falls back to [Trie] on tiny
    inputs, where the transpose cannot amortize.  The mined output is
    byte-identical across [Trie], [Vertical], and [Auto]. *)

val resolve_counter :
  counter -> Db.t -> [ `Trie | `Vertical | `Sampled of float * int ]
(** The engine [Auto] resolves to on this database (identity on the
    explicit choices; [Sampled] unpacks to its fraction and seed).
    Exposed so external drivers — the parallel runtime, the CLI — agree
    with {!mine} on the resolution rule.
    @raise Invalid_argument on a sampled fraction outside (0,1]. *)

val mine :
  ?max_size:int -> ?counter:counter -> Db.t -> min_support:float ->
  (Itemset.t * int) list
(** [mine db ~min_support] returns every itemset with support (fraction of
    transactions) at least [min_support], paired with its absolute count,
    in {!Itemset.compare} order.  [max_size] caps the itemset cardinality
    explored (default: unbounded); [counter] selects the counting engine
    (default [Auto], as on the command line; every exact engine mines the
    same output).
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val mine_vertical :
  ?max_size:int -> Vertical.t -> min_support:float -> (Itemset.t * int) list
(** [mine] for a database already in vertical form — the entry point for
    columnar input ({!Vertical.of_colfile}), where the row-major [Db.t]
    never exists: level 1 seeds from the per-item counts and every level
    counts on the (possibly compressed) tid-sets in place.  Output is
    byte-identical to [mine ~counter:Vertical] on the equivalent
    database.
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
    external drivers (the parallel runtime) cannot drift from {!mine}'s
    loop. *)

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

val level1_of_counts : int array -> threshold:int -> (Itemset.t * int) list
(** {!level1} from a bare per-item count array — the seed for drivers
    that have no [Db.t], such as the columnar paths. *)

val record_level : size:int -> candidates:'a list -> frequent:'b list -> unit
(** Record the per-level candidate/survivor counters of the observability
    layer ([apriori.level<n>.candidates] / [.frequent]); a no-op when
    metrics are disabled.  Exposed so external level-wise drivers emit the
    same metrics as {!mine}. *)

val with_level_span : size:int -> (unit -> 'a) -> 'a
(** Run [f] under the per-level phase span [apriori.level<size>] (which
    also emits a timeline slice when tracing is on); [f ()] after one
    flag check when all instrumentation is off.  Exposed so external
    level-wise drivers produce the same per-phase timeline as {!mine}. *)
