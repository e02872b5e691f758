(** Randomization operators over transactions.

    Every operator in this module is a *per-size select-a-size* operator
    (the normal form of the paper): on a transaction [t] of size [m] it

    + draws [j] from a size-[m] keep distribution [p_0 .. p_m],
    + keeps a uniformly random [j]-subset of [t], and
    + inserts every universe item outside [t] independently with
      probability [rho].

    Uniform (per-item) randomization and cut-and-paste randomization are
    both expressible as induced keep distributions, so the whole privacy
    and recovery analysis (amplification, transition matrices) applies to
    them through one code path. *)

open Ppdm_prng
open Ppdm_data

type t
(** A randomization scheme: a family of select-a-size operators indexed by
    transaction size, over a fixed universe. *)

type resolved = { keep_dist : float array; rho : float }
(** The concrete operator for one transaction size [m]:
    [Array.length keep_dist = m + 1], entries non-negative and summing
    to 1; [0 <= rho <= 1]. *)

val uniform : universe:int -> p_keep:float -> p_add:float -> t
(** Warner-style independent randomization: each item of [t] is kept with
    probability [p_keep]; each item outside [t] is added with probability
    [p_add].  Its induced keep distribution is Binomial(m, p_keep). *)

val select_a_size :
  universe:int -> size:int -> keep_dist:float array -> rho:float -> t
(** The operator of the paper for one fixed transaction size.  Applying it
    to a transaction of any other size (except the trivial empty one)
    raises [Invalid_argument].
    @raise Invalid_argument if [keep_dist] has the wrong length, has a
    negative entry, does not sum to 1 (tolerance 1e-9), or [rho] is
    outside [0,1]. *)

val cut_and_paste : universe:int -> cutoff:int -> rho:float -> t
(** Cut-and-paste randomization C&P(K, rho) of the companion KDD 2002
    paper: [j = min(uniform{0..K}, m)].  Induced keep distribution:
    [p_j = 1/(K+1)] for [j < min(K, m)], with the clipped tail mass on
    [j = m] when [m <= K]. *)

val per_size : universe:int -> name:string -> (int -> resolved) -> t
(** General per-size family; [f m] must return a valid resolved operator
    for every size that occurs in the data (validated on first use). *)

val universe : t -> int
val name : t -> string

val same_parameters : t -> t -> sizes:int list -> bool
(** Structural equality of operator parameters: same universe and, for
    every listed size, identical keep distribution and rho.  A size one
    scheme does not cover compares unequal (no exception).  Names are
    ignored — schemes built by different constructors with the same
    parameters are the same operator (cf. a scheme round-tripped through
    [Scheme_io]).  [Stream] uses this to refuse merging accumulators
    built under different randomization schemes. *)

val warm_cache : t -> sizes:int list -> unit
(** Resolve and cache the operator for every listed size (validating each).
    A scheme is a lazily-populated per-size cache, which is mutated on
    first use of each size; warming every size that occurs in the data
    beforehand makes subsequent {!apply} calls read-only, and therefore
    safe to run concurrently from multiple domains on the same scheme.
    The parallel runtime calls this before sharding a database. *)

val resolve : t -> size:int -> resolved
(** The concrete operator used for the given transaction size (a defensive
    copy).  @raise Invalid_argument if the scheme does not cover the
    size. *)

val expected_kept_fraction : t -> size:int -> float
(** [Σ_j p_j · j / m]: the utility proxy maximized by the optimizer
    (1.0 for the empty-transaction size). *)

val apply : t -> Rng.t -> Itemset.t -> Itemset.t
(** Randomize one transaction.  One pass in item order, O(m + noise)
    time: selection sampling picks the kept items and geometric gaps over
    the complement pick the noise.  Apart from a per-domain scratch buffer
    sized to the universe on first use, it allocates only its result:
    {!apply_into} on that buffer plus one exact copy.  Counts one
    ["randomizer.apply"] and a cache hit or miss.
    @raise Invalid_argument if the transaction is larger than the
    universe (checked before the size's operator is resolved) or the
    scheme does not cover its size. *)

val apply_into : t -> Rng.t -> Itemset.t -> int array -> off:int -> int
(** [apply_into t rng tx buf ~off] writes the report {!apply} would return
    (same draws, same order) ascending into [buf.(off ..)] and returns its
    length.  It allocates nothing, finds its size's operator by one array
    read, and counts nothing but a cache miss: a caller applying it to
    many rows adds them with {!count_applies}.
    @raise Invalid_argument as {!apply} does, or if [buf] has fewer than
    [universe t] slots from [off] on. *)

val count_applies : int -> unit
(** [count_applies n] adds [n] to the ["randomizer.apply"] and
    ["randomizer.cache.hit"] counters: [n] rows of {!apply_into} on
    sizes already cached (see {!warm_cache}), counted once. *)
