(** FP-growth frequent-itemset mining (Han, Pei & Yin, SIGMOD 2000): the
    pattern-growth baseline Apriori is benchmarked against.  Produces the
    same result set as {!Ppdm_mining.Apriori.mine}; differs only in
    runtime shape (no candidate generation, two database passes). *)

open Ppdm_data

val mine :
  ?max_size:int -> Db.t -> min_support:float -> (Itemset.t * int) list
(** Same contract as {!Ppdm_mining.Apriori.mine}: all itemsets with
    support at least [min_support], with absolute counts, in
    {!Itemset.compare} order.
    @raise Invalid_argument if [min_support] is outside (0, 1]. *)
