(** PPDMC — the on-disk columnar transaction format.

    A PPDMC file is the transposed form of a transaction database, held
    in exactly the shape the vertical engine counts on: per item, its
    tid-set as a packed bitmap or as ascending tids, behind a fixed
    header and a directory of [(cardinality, offset, length)] slices.
    Which shape an item takes is the one density rule
    {!Bitset.dense_for} at the directory cardinality, so a load adopts
    each payload after one validation pass, with nothing to decode.  The
    reader needs one seek + one read per item, so a vertical load streams
    the file without the row-major database ever being resident.

    The price of storing the loaded form is size on sparse data: a
    sparse tid takes 4 bytes.

    Layout (integers little-endian):
    {v
    0   6B   magic "PPDMC\x00"
    6   u16  version (2)
    8   u64  universe
    16  u64  transactions n
    24  u64  payload bytes
    32  directory: universe x (u64 card, u64 offset, u64 length)
    ..  payload: per item, by Bitset.dense_for ~n card,
        dense:  Bitset.words_for n words as i64 (62 bits used,
                bits past tid n-1 zero)
        sparse: card strictly increasing tids below n as u32
    v}

    Every read validates what it reads and raises the typed {!Error} — a
    corrupt or truncated file never yields a partial tid-set.  Version-1
    files (the retired block-container layout) fail with
    [Unsupported_version 1]. *)

type error =
  | Bad_magic  (** Not a PPDMC file. *)
  | Unsupported_version of int
  | Truncated of string  (** The file ends before [what] is complete. *)
  | Corrupt of string  (** Structurally invalid content. *)

exception Error of error

val error_message : error -> string

(** {1 Reading} *)

type t
(** An open columnar file: header + directory resident, payloads read
    on demand. *)

val open_file : string -> t
(** Validates the header, directory bounds, and total file size.
    @raise Error on any violation.
    @raise Sys_error if the file cannot be opened. *)

val universe : t -> int
val length : t -> int
(** Transactions covered. *)

val item_count : t -> int -> int
(** Directory cardinality of an item, without touching its payload. *)

val payload : t -> int -> int array
(** Seek to and read one item's tid-set in its stored shape: the
    [Bitset.words_for n]-word bitmap when [Bitset.dense_for ~n card],
    the ascending tids otherwise ([card] = {!item_count}).  Validates the
    slice length against that shape, that every word is in range with
    its bits past the last transaction zero and its popcount equal to
    [card], and that tids strictly increase below [n].  The read goes
    through one buffer reused across items.
    @raise Error on any violation.
    @raise Invalid_argument if the item is out of range or the file is
    closed. *)

val close : t -> unit
(** Idempotent. *)

(** {1 Writing} *)

val write : string -> n:int -> int array array -> unit
(** Write per-item ascending tids (item [i] = [tids.(i)], each strictly
    increasing in [0, n)) in the stored shapes; mainly for tests and the
    oracle — the CLI path is {!convert}.
    @raise Invalid_argument on an empty array, an [n] outside
    [0, 2{^32}], or tids that are not ascending in [\[0, n)].
    @raise Sys_error on I/O failure. *)

type convert_stats = {
  cv_universe : int;
  cv_transactions : int;
  cv_payload_bytes : int;
}

val convert : ?universe:int -> src:string -> dst:string -> unit -> convert_stats
(** Streaming transpose of a transaction file (FIMI or header format,
    sniffed by {!Io.fold_transactions}) into a PPDMC file, in two passes
    over the source: the first counts each item's tids, the second feeds
    the rows to a {!Bitset.builder}, which fills exact-size payloads.  The source database is never resident; the
    working set is the output's payloads.  Emits the
    ["columnar.convert"] span and the [columnar.bytes] counter when
    observation is enabled.
    @raise Failure / {!Io.Item_out_of_universe} as
    {!Io.fold_transactions}, and [Failure] if the second pass does not
    see the rows the first one counted (the file changed, or was a
    pipe).
    @raise Invalid_argument if [universe < 1].
    @raise Sys_error on I/O failure (for the output, the message starts
    with [dst]). *)
