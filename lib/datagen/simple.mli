(** Simple synthetic transaction databases: controlled workloads for tests,
    estimator calibration, and the clickstream-shaped stand-in for the
    proprietary datasets of the original experiments. *)

open Ppdm_prng
open Ppdm_data

val fixed_size : Rng.t -> universe:int -> size:int -> count:int -> Db.t
(** Uniform random [size]-subsets of the universe: the constant-size model
    under which the paper's per-size analysis is exact. *)

val zipf_clickstream :
  Rng.t -> universe:int -> exponent:float -> avg_size:float -> count:int -> Db.t
(** Heavy-tailed item popularity (Zipf with the given exponent) and
    Poisson-distributed transaction sizes: the shape of the WorldCup'98
    [soccer] clickstream used by the original mining experiments. *)

val planted :
  Rng.t ->
  universe:int ->
  size:int ->
  count:int ->
  itemset:Itemset.t ->
  support:float ->
  Db.t
(** Fixed-size transactions in which a [support] fraction (exactly, up to
    rounding) contains the planted [itemset]; remaining items are uniform
    from the complement.  Gives a database with a *known* true support, the
    ground truth for estimator-accuracy experiments.
    @raise Invalid_argument if the itemset does not fit in [size] or in the
    universe. *)
