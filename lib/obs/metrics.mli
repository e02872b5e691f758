(** Metrics: counters, gauges, and log-bucketed histograms behind a
    process-wide registry of per-domain sharded sinks.

    Design constraints (they shape the whole module):

    + {b Disabled is free.}  Every recording entry point checks one atomic
      flag and returns; no name lookup, no allocation, no clock read.
      Instrumentation can therefore live inside per-transaction hot loops.
    + {b No contention, no nondeterminism.}  Each domain records into its
      own sink (domain-local storage); sinks touch no shared state after
      the one-time registration.  Instrumented code produces bit-identical
      {e results} with metrics on or off, at any job count — only the
      metric values themselves (timings, per-domain splits) vary with
      scheduling.
    + {b Deterministic merge.}  {!snapshot} folds the shards with
      commutative, associative merges (counters and histograms sum, gauges
      take the max) and sorts by name, so the report does not depend on
      domain registration order — the same discipline as
      [Stream.merge].

    Take {!snapshot} (or {!reset}) only at a quiescent point — when no
    other domain is recording, e.g. after the pool has drained a batch.
    The CLI and bench harness do exactly that. *)

val set_enabled : bool -> unit
(** Turn recording on or off (off initially).  Already-recorded values are
    kept; use {!reset} to clear them. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Clear every sink (counters, gauges, histograms) in the registry. *)

val add : string -> int -> unit
(** [add name n] increments counter [name] by [n].  No-op when disabled. *)

val incr : string -> unit
(** [incr name] is [add name 1]. *)

val gauge : string -> float -> unit
(** [gauge name v] records gauge [name]; shards merge by [Float.max].
    No-op when disabled. *)

val observe : string -> int -> unit
(** [observe name v] adds the non-negative value [v] to histogram [name]
    (negative values clamp to 0).  Buckets are powers of two: bucket 0 is
    the value 0, bucket [i >= 1] covers [2{^i-1} .. 2{^i}-1].  No-op when
    disabled. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (arbitrary epoch).  Always live, so callers can
    take a timestamp before checking {!enabled}.

    This is [Unix.gettimeofday], a {e wall} clock, because the stdlib
    offers no monotonic clock without an external package.  NTP may step
    it backwards between two reads, so a difference of two [now_ns]
    values can be negative: every duration derived from it is clamped at
    0 ({!observe} clamps, and so do [Span.with_] and the trace begin/end
    pairing).  A clamped duration under-reports; it never corrupts
    histograms or timelines. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f] and observes its wall-clock duration in
    nanoseconds into histogram [name].  When disabled, [time name f] is
    [f ()] after a single flag check. *)

(** {2 Snapshots} *)

type histogram = {
  count : int;  (** number of observations *)
  sum : int;  (** sum of observed values *)
  min : int;  (** exact smallest observation; 0 when empty *)
  max : int;  (** exact largest observation; 0 when empty *)
  buckets : (int * int) list;
      (** [(lower_bound, count)] for each non-empty bucket, ascending *)
}

val quantile : histogram -> float -> int
(** [quantile h q] is an upper bound on the [q]-quantile ([0 <= q <= 1]):
    the (exclusive) upper edge of the bucket holding that rank.  0 for an
    empty histogram. *)

(** {2 Bucket geometry}

    Shared by the sliding-window histograms ([Window]) and the
    OpenMetrics renderer ([Exposition]) so every histogram in the
    process uses the same log2 buckets. *)

val n_buckets : int

val bucket_of : int -> int
(** Bucket index of a value: 0 for 0, [i >= 1] for [2{^i-1} .. 2{^i}-1];
    the last bucket absorbs everything larger. *)

val bucket_lower_bound : int -> int
(** Inclusive lower bound of bucket [i]. *)

val bucket_upper_edge : int -> int
(** Exclusive upper edge of bucket [i]. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}
(** All three lists sorted by name. *)

val snapshot : unit -> snapshot
(** Merge every registered sink (see the module preamble for when this is
    safe).  Returns empty lists when nothing was recorded. *)

(** {2 Flag plumbing for the trace layer}

    The enabled word is shared with [Trace] so code serving both layers
    can test "anything on?" with one atomic load.  Call these through
    [Trace.set_enabled]/[Trace.enabled]; they live here only because the
    word does. *)

val set_trace_enabled : bool -> unit
val trace_enabled : unit -> bool

val any_enabled : unit -> bool
(** True iff metrics or tracing (or both) are enabled — one atomic load. *)
