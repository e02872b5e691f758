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
    as an allocation.

    Every writer runs on one row encoder: items are encoded in decimal
    by hand into one reused 64 KB block, written with one [output] per
    block, in the bytes [string_of_int] and [Printf] would write.  A
    file that cannot be opened, written or closed raises its
    [Sys_error]. *)

val block_size : int
(** The writers' block, in bytes (64 KB): a constant, not a knob. *)

val write_file : string -> Db.t -> unit

val read_file : string -> Db.t
(** Reads to the end of the file.  @raise Failure on malformed input,
    with a message starting ["Io.read: "]: ["empty input"], ["malformed
    header"], ["malformed header values"], ["bad item \"tok\""], ["item
    outside the declared universe"] (a negative id included), ["fewer
    transactions than declared"] or ["trailing content after the
    declared transactions"].  Either direction of a count/body mismatch
    is an error, so a truncated or corrupted header never silently
    under-reads the file. *)

(** {1 Tagged randomized data}

    What a client sends after randomizing: each row pairs the
    transaction's original size — public protocol metadata the estimator
    needs — with the randomized itemset.  Format: a header line
    ["tagged <universe> transactions <count>"], then one ["size|items"]
    line per row, the items as in the plain format. *)

val write_tagged_rows :
  string -> universe:int -> rows:int ->
  ((int -> int array -> int -> int -> unit) -> unit) -> unit
(** [write_tagged_rows path ~universe ~rows iter] writes the header, then
    one line per call [row size items off len] that [iter row] makes, in
    order: the original [size] and the report
    [items.(off .. off + len - 1)], ascending.  The rows are slices, so a
    store of flat buffers writes without a pair or an itemset per row.
    @raise Invalid_argument if [iter] makes other than [rows] calls. *)

val write_tagged : string -> universe:int -> (int * Itemset.t) array -> unit
(** {!write_tagged_rows} over the array's rows. *)

type stream_info = { universe : int; transactions : int }
(** A file's universe and row count: as its header declares them, or as
    a fold found them. *)

val read_tagged :
  string ->
  init:(stream_info -> 'a) ->
  f:('a -> int * Itemset.t -> 'a) ->
  'a * stream_info
(** The tagged fold: [f] over the [(size, items)] rows as they are
    decoded, from [init] applied to the header, on the same decoder and
    count contract as {!read_file}.  No row outlives its call to [f],
    so a file of any length reads in the memory of one row.  Returns the
    fold and the header.
    @raise Failure on malformed input, with a message starting
    ["Io.read_tagged: "]: those of {!read_file}, plus ["row without
    a size|items separator"] and ["bad size \"tok\""] (a negative or
    non-integer size, or one above the declared universe).  A failure
    can come after [f] has seen earlier rows.
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

val fold_transactions :
  ?universe:int -> string -> init:'a -> f:('a -> Itemset.t -> 'a) -> 'a * stream_info
(** Stream a transaction file through [f] one line at a time — the
    source database is never resident, which is what lets the columnar
    converter transpose files larger than RAM.  The format is sniffed
    from the first line: a line whose first token is ["universe"] selects
    the header format (declared universe and count enforced exactly as
    {!read_file}); anything else is FIMI.  Returns the fold result
    plus the resolved universe (declared, overridden, or inferred as
    max item + 1) and the number of transactions folded.
    @raise Failure as {!read_file}/{!read_fimi}, or if a [universe]
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
