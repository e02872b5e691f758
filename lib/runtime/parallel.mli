(** Parallel entry points for the hot paths of the library, sharded over a
    {!Pool}.

    Every function here returns {e exactly} what its sequential
    counterpart in the same module family returns — bit-identical at any
    job count, per the {!Pool} determinism contract — so callers opt
    into parallelism by swapping the call site, nothing else.  Counting
    runs on the vertical tid-sets only and shards over a {!Grid} plan
    that depends only on the data shape, never on the job count.

    {!randomize} is the one way a database is randomized: [randomize],
    [private] and [load] draw through it, and so do the experiments and
    the checks.  Two caveats inherited from its seeding scheme:

    - each chunk of rows draws from its own derived child of the caller's
      [Rng.t], so a report depends on the seed, the chunk size and its
      row, never on the job count; a chunk size other than the default
      ({!Pool.default_chunk}) gives other reports;
    - a scheme's per-size cache is warmed here before fan-out
      ({!Ppdm.Randomizer.warm_cache}), after which concurrent [apply]
      calls only read it. *)

open Ppdm_prng
open Ppdm_data
open Ppdm

val randomize :
  Pool.t -> ?chunk:int -> Randomizer.t -> Rng.t -> Db.t -> Reports.t
(** Randomize every transaction into a report store, one pool task per
    chunk of [chunk] rows (default {!Pool.default_chunk}).  Chunk [i]
    draws its rows in order from [Rng.derive rng ~index:i]; [rng] itself
    advances by one draw, as in {!Pool.map_reduce}.  Each chunk writes
    into its own flat buffer, so the pass allocates O(chunks).
    @raise Invalid_argument on a universe mismatch or [chunk <= 0]. *)

val randomize_db_tagged :
  Pool.t -> ?chunk:int -> Randomizer.t -> Rng.t -> Db.t ->
  (int * Itemset.t) array
(** The rows of {!randomize} as [(original size, report)] pairs, the
    server-side protocol format: the same chunks and children, each row
    drawn by [Randomizer.apply].
    @raise Invalid_argument as {!randomize}. *)

val support_counts_vertical :
  Pool.t -> ?chunk:int -> ?cand_chunk:int ->
  Ppdm_mining.Vertical.t -> Itemset.t list -> (Itemset.t * int) list
(** 2-D-grid-sharded [Vertical.support_counts]: {!Grid.plan} cuts the
    rectangle of the one word run [\[0, word_count)] by the candidates
    into cells of [chunk] words by [cand_chunk] candidates (defaults: L2-cache-sized windows and at most
    16 candidate columns — see {!Grid}), each cell counts its candidate
    range over its word window into an int array, and the per-cell arrays
    are added into the totals at their column offsets in cell-index
    order.  Counts over disjoint tid ranges add up exactly and candidate
    columns concatenate, so the output is bit-identical to the sequential
    engine at any job count.
    @raise Invalid_argument if a chunk is non-positive or a candidate is
    empty. *)

val apriori_mine :
  Pool.t -> ?chunk:int -> ?max_size:int ->
  ?counter:Ppdm_mining.Apriori.counter -> Db.t -> min_support:float ->
  (Itemset.t * int) list
(** [Apriori.mine] with every level's candidate counting sharded:
    [apriori_mine_vertical pool (Vertical.of_db db)].  [counter] names
    the engine and changes nothing: every constructor is the one exact
    engine.  The mined output is byte-identical to [Apriori.mine] at any
    job count.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val apriori_mine_vertical :
  Pool.t -> ?chunk:int -> ?cand_chunk:int -> ?max_size:int ->
  Ppdm_mining.Vertical.t -> min_support:float -> (Itemset.t * int) list
(** [Apriori.mine_vertical] with every level counted through
    {!support_counts_vertical}.  Level 1 seeds from the per-item counts.
    [?chunk] is in bitmap words.  The tid-sets may come from a transpose
    ([Vertical.of_db]) or a columnar file ([Vertical.of_colfile]), which
    are equal, so both sources mine the same bytes.  The output is
    byte-identical to [Apriori.mine_vertical] at any job count.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)
