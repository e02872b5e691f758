(** Serialization of randomization schemes.

    The protocol requires client and server to agree on the exact operator
    parameters (they are public).  A scheme is a function of transaction
    size, so it is serialized extensionally: the resolved operator for
    each size in an explicit list — typically the sizes occurring in the
    data — plus the universe.  Reading yields a scheme that serves exactly
    those sizes and rejects others.

    Format (text, line-oriented):
    {v
    ppdm-scheme 1
    universe <n>
    name <string>
    size <m> rho <float> keep <p_0> ... <p_m>
    ...
    v} *)

val write_file : string -> Randomizer.t -> sizes:int list -> unit
(** Serialize the operators the scheme uses at the given sizes
    (deduplicated; each size resolved once).
    @raise Invalid_argument if the scheme does not cover one of them. *)

val read_file : string -> Randomizer.t
(** @raise Failure on malformed input, including an operator that is not
    a distribution ({!Randomizer.validate_resolved}), found as its line
    is read. *)

val to_string : Randomizer.t -> sizes:int list -> string
(** The serialized form as a string — the in-band representation the
    network handshake sends ({!Ppdm_server.Wire.Hello} carries one), byte
    identical to what {!write_file} writes. *)

val of_string : string -> Randomizer.t
(** Parse a scheme from its serialized string form.  Same grammar as
    {!read_file}, but an operator that is not a distribution raises
    [Invalid_argument] on first use, as a {!Randomizer.per_size} family
    does: the server's handshake answers such a scheme with a scheme
    mismatch.
    @raise Failure on malformed input. *)

val sizes_of_db : Ppdm_data.Db.t -> int list
(** The distinct transaction sizes of a database, ascending — the size
    list to serialize a scheme against before randomizing that data. *)
