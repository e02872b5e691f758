(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ (Blackman & Vigna), seeded through
    SplitMix64 so that any 64-bit seed yields a well-mixed state.  Every
    randomized component of the library takes an explicit [t], which makes
    all experiments reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 64-bit seed.  The default
    seed is a fixed constant, so two programs that never pass [~seed]
    observe identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from the current state
    of [t]; advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are decorrelated (the child is re-seeded through SplitMix64
    from fresh output of the parent). *)

val derive : t -> index:int -> t
(** [derive t ~index] is a child generator determined entirely by the
    current state of [t] and [index]; [t] is {e not} advanced.  Children
    at distinct indices are decorrelated (SplitMix64 mixing), and the
    same (state, index) pair always yields the same child.  This is the
    deterministic fan-out primitive of the parallel runtime: chunk [i] of
    a sharded computation uses [derive rng ~index:i], so output is
    independent of domain scheduling and job count.
    @raise Invalid_argument if [index] is negative. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [lo, hi].  Requires [lo <= hi]. *)

val float : t -> float
(** Uniform on [0, 1) with 53 bits of precision. *)

val bits53 : t -> int
(** Uniform on [0, 2{^53}-1]: the draw behind {!float}, which is
    [float_of_int (bits53 t) *. 0x1p-53] on the same stream.  It returns
    an immediate, so a loop in another module can draw uniforms without
    boxing a float per call when cross-module inlining is off (dune's
    default dev profile compiles with [-opaque]). *)

val bool : t -> bool
(** Fair coin. *)
