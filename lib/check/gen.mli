(** Sized random generators with shrinking, seeded through {!Ppdm_prng.Rng}.

    Every generator draws exclusively from an explicit [Rng.t], so a
    property run is a pure function of one 64-bit seed: any failure the
    {!Property} runner reports replays bit-for-bit from the printed seed.
    A generator carries its own shrinker (candidates strictly "smaller"
    than the input, tried until the property stops failing) and printer,
    so counterexamples come back minimal and readable.

    The [~size] parameter bounds structural largeness (list lengths,
    transaction counts); the runner grows it over a run so early cases are
    tiny and later cases stress the code. *)

open Ppdm_prng
open Ppdm_data
open Ppdm

type 'a t
(** A generator of ['a]: random production, shrinking, printing. *)

val make :
  ?shrink:('a -> 'a Seq.t) ->
  ?print:('a -> string) ->
  (Rng.t -> size:int -> 'a) ->
  'a t
(** Build a generator.  [shrink] defaults to no candidates; [print] to
    ["<opaque>"]. *)

val generate : 'a t -> Rng.t -> size:int -> 'a
val shrink : 'a t -> 'a -> 'a Seq.t
val print : 'a t -> 'a -> string

(** {1 Base combinators} *)

val return : ?print:('a -> string) -> 'a -> 'a t

val int_range : int -> int -> int t
(** Uniform on the inclusive range; shrinks toward the lower bound. *)

val float_range : float -> float -> float t
(** Uniform on [lo, hi); no shrinking (float shrinks rarely clarify). *)

val bool : bool t
(** Fair coin; [true] shrinks to [false]. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** Shrinks each component in turn. *)

val list : ?max_len:int -> 'a t -> 'a list t
(** Length uniform on [0, min max_len size]; shrinks by dropping halves,
    dropping single elements, then shrinking elements. *)

val map : ?shrink:('b -> 'b Seq.t) -> ?print:('b -> string) -> ('a -> 'b) -> 'a t -> 'b t
(** [map f g] generates [f x] for [x] from [g].  Shrinking cannot be
    transported through [f]; pass [?shrink] to restore it. *)

(** {1 Domain generators} *)

val item : universe:int -> int t
(** A uniform item id in [0, universe-1]; shrinks toward 0. *)

val itemset : universe:int -> Itemset.t t
(** A random itemset over the universe, cardinality bounded by [size];
    shrinks by removing items. *)

val transaction : universe:int -> Itemset.t t
(** Alias of {!itemset} (a transaction {e is} an itemset). *)

val fixed_size_transaction : universe:int -> card:int -> Itemset.t t
(** A uniformly random [card]-subset of the universe (no shrinking: the
    cardinality is part of the contract).  Requires [card <= universe]. *)

val db : ?min_universe:int -> max_universe:int -> max_transactions:int -> unit -> Db.t t
(** A database with a random universe in [min_universe (default 2),
    max_universe] and at most [min max_transactions size] transactions.
    Shrinks by dropping transactions, then thinning transactions; the
    universe is preserved (most consumers key on it).  Prints in the
    {!Ppdm_data.Io} text format, so a counterexample pastes straight into
    a file. *)

val fixed_size_db :
  universe:int -> card:int -> max_transactions:int -> Db.t t
(** A database whose every transaction has exactly [card] items — the
    single-size-class shape the square estimator path requires.  Shrinks
    by dropping transactions only. *)

val min_support : float t
(** A support threshold in (0, 1]; shrinks to 0.5 once (a simpler,
    usually still-failing value). *)

val scheme : universe:int -> Randomizer.t t
(** A randomization scheme over the universe: a uniform (Warner-style)
    operator with [p_keep] in [0.3, 0.95] and [p_add] in [0.01, 0.31], or
    cut-and-paste with [K] in [1, 5] and [rho] in [0.05, 0.45].  Prints
    the scheme name. *)

val permutation : n:int -> int array t
(** A uniform permutation of [0..n-1] (Fisher-Yates); no shrinking. *)

(** {1 Fuzz (text) generators}

    Migrated from the ad-hoc generators of [test/test_fuzz.ml]: inputs
    for parser-survival properties.  All shrink by halving the string. *)

val garbage_string : string t
(** Arbitrary bytes (0-255), length up to [2 * size]. *)

val almost_db_text : string t
(** Structured-ish garbage for {!Ppdm_data.Io.read_file}: a header
    with possibly-wrong numbers followed by a partial body with items
    possibly negative or outside the universe. *)

val corrupt_scheme_text : string t
(** Structured-ish garbage for {!Ppdm.Scheme_io.read_file}: a
    syntactically plausible scheme file with out-of-range sizes, rhos,
    and keep distributions. *)

(** {1 Databases from a model} *)

val bernoulli_db : Rng.t -> item_probs:float array -> count:int -> Db.t
(** Independent-items model: item [i] appears in each transaction
    independently with probability [item_probs.(i)] (the universe is the
    array length).  This is the distribution under which the item-level
    breach analysis of {!Ppdm.Breach} is exact, so it calibrates those
    tests.  @raise Invalid_argument on probabilities outside [0,1]. *)
