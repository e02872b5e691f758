(** Generic randomization channels over finite domains.

    The paper's amplification framework is not specific to itemsets: any
    randomization operator over a finite value domain is a column-
    stochastic matrix [C] with [C(y|x) = P(output = y | input = x)], its
    amplification is [γ = max_y max_{x1,x2} C(y|x1)/C(y|x2)], and the
    breach-prevention theorem applies verbatim.  This module provides that
    general form — the itemset transition matrices of {!Transition} are
    one instance, the binned numeric-attribute channels of experiment E1
    another.

    Distribution recovery mirrors the itemset estimators: unbiased matrix
    inversion or maximum-likelihood EM over observed output counts. *)

open Ppdm_prng
open Ppdm_linalg

type t
(** A channel with [inputs] input symbols and [outputs] output symbols. *)

val create : Mat.t -> t
(** Adopt a matrix with entry [(y, x) = P(y | x)].
    @raise Invalid_argument unless every column is a probability vector
    (tolerance 1e-9). *)

val inputs : t -> int
val outputs : t -> int

val probability : t -> x:int -> y:int -> float

val matrix : t -> Mat.t
(** Defensive copy of the underlying matrix. *)

val gamma : t -> float
(** Worst-case amplification; [infinity] if some output separates two
    inputs with probability ratio unbounded (a zero against a non-zero). *)

val gamma_for_output : t -> y:int -> float
(** Amplification restricted to one output symbol. *)

val randomized_response : size:int -> epsilon:float -> t
(** The classical ε-LDP randomized-response channel over [size] symbols:
    keep the true symbol with probability [e^ε / (e^ε + size - 1)],
    otherwise emit a uniformly random other symbol.  Its {!gamma} is
    exactly [e^ε]. *)

val geometric_noise : size:int -> alpha:float -> t
(** Truncated-geometric additive noise on an ordered domain of [size]
    bins: [P(y|x) ∝ alpha^|y-x|] with [0 < alpha < 1] — the discrete
    (binned) analogue of additive Laplace noise on a numeric attribute.
    γ is finite and decreases as [alpha → 1]. *)

val compose : t -> t -> t
(** [compose second first] feeds outputs of [first] into [second];
    γ of the composite never exceeds the smaller of the two (processing
    cannot create information). *)

val apply : t -> Rng.t -> int -> int
(** Randomize one input symbol. *)

val posterior : t -> prior:float array -> y:int -> float array
(** Exact Bayes posterior over inputs given output [y] under a prior.
    @raise Invalid_argument if the output has zero probability under the
    prior or the prior is not a probability vector. *)

(** {1 Distribution recovery from randomized outputs} *)

val estimate_inversion : t -> counts:int array -> float array
(** Unbiased recovery of the input distribution from output counts:
    [C⁻¹ ĉ/N].  Requires a square channel.
    @raise Ppdm_linalg.Lu.Singular on non-invertible channels. *)

val estimate_em :
  ?max_iterations:int -> ?tolerance:float -> t -> counts:int array ->
  float array
(** Maximum-likelihood recovery by EM; always a probability vector. *)
