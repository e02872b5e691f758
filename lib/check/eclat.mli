(** Eclat frequent-itemset mining (Zaki, TKDE 2000): depth-first search
    over the vertical (tid-set) representation.  A third miner alongside
    {!Ppdm_mining.Apriori} and {!Fptree} — identical output, different
    runtime shape (intersection-bound rather than candidate- or
    tree-bound), used by the miner-comparison benchmark and the
    differential checks; {!mine} is its only entry point.  Tid-sets are
    the adaptive dense/sparse hybrids of {!Ppdm_mining.Vertical}:
    frequent items start as packed bitmaps (word-AND intersections), and
    the DFS degrades to sorted-tid probes and merges as intersections
    shrink. *)

open Ppdm_data

val mine :
  ?max_size:int -> Db.t -> min_support:float -> (Itemset.t * int) list
(** Same contract as {!Ppdm_mining.Apriori.mine}: every itemset with
    support at least [min_support], with absolute counts, in
    {!Itemset.compare} order.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)
