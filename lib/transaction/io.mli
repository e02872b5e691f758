(** Plain-text serialization of transaction databases.

    Format: a header line ["universe <n> transactions <count>"] followed by
    one line per transaction of space-separated item ids (an empty
    transaction is an empty line).  Human-inspectable and diff-friendly.

    Every reader below runs on one item decoder and one line loop,
    inside one [io.read] span.  A line is trimmed as by [String.trim]
    and split on spaces (so CRLF files read as LF files do); a token is
    read as [int_of_string_opt] reads it, so [+3], [0x3], [1_0] and
    [007] are items.  Items may come in any order and repeat; a row is
    the set.  A header format takes exactly the declared count of rows,
    then only blank lines.  The count sizes the row array only up to
    2{^20} rows, so a corrupt count fails as a short body rather than
    as an allocation. *)

val write_channel : out_channel -> Db.t -> unit
val write_file : string -> Db.t -> unit

val read_channel : in_channel -> Db.t
(** Reads to the end of the channel.  @raise Failure on malformed input,
    with a message starting ["Io.read: "]: ["empty input"], ["malformed
    header"], ["malformed header values"], ["bad item \"tok\""], ["item
    outside the declared universe"] (a negative id included), ["fewer
    transactions than declared"] or ["trailing content after the
    declared transactions"].  Either direction of a count/body mismatch
    is an error, so a truncated or corrupted header never silently
    under-reads the file. *)

val read_file : string -> Db.t

(** {1 Tagged randomized data}

    What a client sends after randomizing: each row pairs the
    transaction's original size — public protocol metadata the estimator
    needs — with the randomized itemset.  Format: a header line
    ["tagged <universe> transactions <count>"], then one ["size|items"]
    line per row, the items as in the plain format. *)

val write_tagged : string -> universe:int -> (int * Itemset.t) array -> unit

val read_tagged : string -> int * (int * Itemset.t) array
(** The declared universe and the rows, on the same decoder and count
    contract as {!read_channel}.
    @raise Failure on malformed input, with a message starting
    ["Io.read_tagged: "]: those of {!read_channel}, plus ["row without
    a size|items separator"] and ["bad size \"tok\""] (a negative or
    non-integer size).
    @raise Item_out_of_universe on an item outside the declared
    universe, a negative one included. *)

(** {1 FIMI format}

    The header-less format of the FIMI repository datasets
    (fimi.uantwerpen.be): one transaction per line, space-separated item
    ids, nothing else.  The universe is not declared, so reading infers it
    as [max item + 1] (or takes an explicit override for compatibility
    with a known dataset). *)

val write_fimi : string -> Db.t -> unit

exception Item_out_of_universe of { item : int; universe : int }
(** A FIMI stream or a tagged file carried an item id outside the
    declared universe.  Typed (unlike the [Failure]-based parse errors)
    because callers that read untrusted data — `ppdm convert`, `ppdm
    recover`, the columnar transpose — need to distinguish "this database does not fit the declared shape"
    from a syntax error. *)

val read_fimi : ?universe:int -> string -> Db.t
(** @raise Failure ["Io.read_fimi: bad item \"tok\""] on a non-integer
    or negative token.
    @raise Item_out_of_universe the moment an item at or above an
    explicitly given [universe] is read — an out-of-range item is never
    silently folded into a too-small universe.  An empty file yields an
    empty database over a 1-item universe. *)

type stream_info = { universe : int; transactions : int }

val fold_transactions :
  ?universe:int -> string -> init:'a -> f:('a -> Itemset.t -> 'a) -> 'a * stream_info
(** Stream a transaction file through [f] one line at a time — the
    source database is never resident, which is what lets the columnar
    converter transpose files larger than RAM.  The format is sniffed
    from the first line: a line whose first token is ["universe"] selects
    the header format (declared universe and count enforced exactly as
    {!read_channel}); anything else is FIMI.  Returns the fold result
    plus the resolved universe (declared, overridden, or inferred as
    max item + 1) and the number of transactions folded.
    @raise Failure as {!read_channel}/{!read_fimi}, or if a [universe]
    override disagrees with a header's declared universe.
    @raise Item_out_of_universe as {!read_fimi} (FIMI mode only; header
    mode keeps its documented [Failure]). *)

(** {1 Deterministic fault injection (testing)}

    The verification harness ([ppdm_check]) uses these to prove that a
    truncated input surfaces as the documented [Failure] and never as a
    silently partial database.  [inject_read_truncation ~lines] makes
    every subsequent read in this process behave as if its input ended
    after [lines] more lines (the header line counts); it stays armed (at
    zero) until {!clear_fault_injection}.  Under truncation the header
    format fails with ["fewer transactions than declared"] (or ["empty
    input"]), while the FIMI format — which declares no count — yields a
    shorter database with no error: the asymmetry that motivates the
    header format for anything that crosses a network.  Test-only;
    process-global; always disarm in a [finally]. *)

val inject_read_truncation : lines:int -> unit
(** @raise Invalid_argument if [lines < 0]. *)

val clear_fault_injection : unit -> unit
(** Disarm (idempotent). *)
