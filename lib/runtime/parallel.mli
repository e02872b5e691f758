(** Parallel entry points for the hot paths of the library, sharded over a
    {!Pool}.

    Every function here returns {e exactly} what its sequential
    counterpart in the same module family returns — bit-identical at any
    job count, per the {!Pool} determinism contract — so callers opt
    into parallelism by swapping the call site, nothing else.  Counting
    runs on the vertical tid-sets only and shards over a {!Grid} plan
    that depends only on the data shape, never on the job count: exact
    counting plans over all words, sampled counting over the sample's
    word runs, through the same cells and the same reduction.

    Two caveats inherited from the seeding scheme:

    - the randomizing function consumes the caller's [Rng.t] differently
      from [Randomizer.apply_db]'s single sequential stream (each chunk
      uses a derived child), so their output matches the [jobs = 1] run of
      the {e same} function, not the legacy single-stream pass;
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
    [apriori_mine_vertical pool ?counter (Vertical.of_db db)].  The mined
    output is byte-identical to [Apriori.mine] at any job count (sampled
    output matches the sequential sampled run for the same fraction and
    seed).
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)

val apriori_mine_vertical :
  Pool.t -> ?chunk:int -> ?cand_chunk:int -> ?max_size:int ->
  ?counter:Ppdm_mining.Apriori.counter -> Ppdm_mining.Vertical.t ->
  min_support:float -> (Itemset.t * int) list
(** [Apriori.mine_vertical] with every level sharded: the exact engine
    ([counter = Vertical], the default; [Auto] is its alias) counts
    through {!support_counts_vertical}, and [counter = Sampled _] through
    the same grid and reduction with the sample plan's word runs in
    place of the one full run, then [Sampled.scale_counts]; the sampled
    output equals the sequential sampled run for the same fraction and
    seed at any job count.  Level 1 seeds from the per-item counts.
    [?chunk] is in bitmap words.  The tid-sets may come from a transpose
    ([Vertical.of_db]) or a columnar file ([Vertical.of_colfile]), which
    are equal, so both sources mine the same bytes.  Exact output is
    byte-identical to [Apriori.mine_vertical] at any job count.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)
