(** Samplers for the distributions used across the library.

    All samplers take an explicit {!Rng.t}; none uses global state. *)

val bernoulli : Rng.t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p].  Requires
    [0 <= p <= 1]. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson sample.  Knuth's product method, accurate for the moderate
    means used by the data generators.  Requires [mean >= 0]. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential sample with the given rate.  Requires [rate > 0]. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian sample (Box–Muller). *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_distinct : Rng.t -> k:int -> bound:int -> int array
(** [sample_distinct rng ~k ~bound] draws [k] distinct integers uniformly
    from [0, bound-1] (Floyd's algorithm), returned sorted increasingly.
    Requires [0 <= k <= bound]. *)

val subset : Rng.t -> k:int -> 'a array -> 'a array
(** [subset rng ~k arr] is a uniform [k]-subset of the elements of [arr],
    in their original relative order.  Requires [0 <= k <= length arr]. *)

type discrete
(** Pre-processed weighted discrete distribution (Walker alias method):
    O(1) per sample after O(n) setup. *)

val discrete : float array -> discrete
(** Build an alias table from non-negative weights (need not be
    normalized; their sum must be positive). *)

val discrete_sample : Rng.t -> discrete -> int
(** Sample an index with probability proportional to its weight. *)

val categorical : Rng.t -> float array -> int
(** One-shot weighted choice by linear scan; use {!discrete} for repeated
    sampling from the same weights. *)

type zipf
(** Pre-processed Zipf distribution over {0, ..., n-1}. *)

val zipf : n:int -> s:float -> zipf
(** Zipf with exponent [s] over [n] ranks (probability of rank [i]
    proportional to [(i+1)^-s]). *)

val zipf_sample : Rng.t -> zipf -> int
(** Sample a rank by inversion (binary search over the CDF). *)
