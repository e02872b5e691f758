(** The randomized reports of one database, stored for the private miner:
    per chunk of rows, one flat buffer of items, one length and one
    original size per row, in input order, and the chunk's item counts.
    Filling it allocates per chunk, not a tagged pair and an itemset per
    row, and {!freeze} turns it into the size-class-windowed tid-sets
    {!Ppmining} counts. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_mining

type t

type frozen = {
  vt : Vertical.t;
  sizes : int array;  (** the original sizes present, ascending *)
  rows : int array;  (** rows per class, padding excluded *)
  bounds : int array;
      (** class [c] owns the word window [bounds.(c), bounds.(c + 1)) *)
}
(** Every class padded with empty rows to whole 62-bit words, its rows
    taking the tids of its window in input order.  An empty row holds no
    item, so padding changes no support a window reports. *)

val create : universe:int -> rows:int -> chunk:int -> t
(** An unfilled store of [rows] rows in chunks of [chunk] (the last one
    shorter).  @raise Invalid_argument if [chunk <= 0]. *)

val randomize_chunk :
  t -> int -> Randomizer.t -> Rng.t -> Itemset.t array -> unit
(** [randomize_chunk t i scheme rng txs] fills chunk [i] with
    {!Randomizer.apply_into} of its rows of [txs], in order, from [rng].
    Distinct chunks may be filled on different domains at once, once the
    scheme's cache is warm. *)

val of_tagged : universe:int -> (int * Itemset.t) array -> t
(** The store of tagged rows [(original size, report)], as one chunk.
    @raise Invalid_argument on a size outside [0, universe] (no
    transaction of the universe has one) or an item outside the
    universe. *)

val length : t -> int

val freeze : t -> frozen
(** Give every item the bitmap or ascending tid array {!Vertical.of_db}
    would at the padded length (the counts were taken as each chunk was
    filled), set its bits or write its tids in one pass over the items,
    and sort each tid array by class.  Equal in word windows, tid-set
    shapes and every tid to regrouping the rows by size, padding each
    class and calling {!Vertical.of_db}. *)
