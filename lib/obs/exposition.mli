(** OpenMetrics text exposition of the whole observability registry —
    what the admin plane's [/metrics] endpoint serves and what
    [ppdm top] consumes.

    {!render} walks [Metrics.snapshot] (counters, gauges, histograms
    with derived min/max/p50/p90/p99 gauge families), [Window.snapshot]
    (meter totals + EWMA rates, sliding-window histograms),
    [Gc.quick_stat] gauges, and per-worker pool busy-fractions.  Dotted
    internal names become [ppdm_]-prefixed sanitized families; a
    trailing [.s<i>]/[.w<i>] name component becomes a
    [shard="i"]/[worker="i"] label.

    Rendering merges sinks the same way snapshots do: exact at a
    quiescent point, memory-safe but approximate while other domains
    record. *)

val render : ?now:int -> unit -> string
(** The full registry in OpenMetrics text format, terminated by
    [# EOF].  [now] (default {!Metrics.now_ns}) fixes the window
    positions and the busy-fraction denominator.  A name recorded both
    as an all-time and as a window instrument renders once, from the
    all-time registry — one family, one TYPE line; use distinct names to
    expose both views. *)

val note_start : ?now:int -> unit -> unit
(** Pin the observation origin used for [ppdm_pool_busy_fraction]
    (busy_ns / elapsed).  Until called, the family is omitted. *)

(** {2 Parsing and validation}

    A small consumer-side parser, enough for [ppdm top] and the CI
    format checker — not a general OpenMetrics implementation. *)

type sample = {
  name : string;  (** full sample name, e.g. [ppdm_server_reports_total] *)
  labels : (string * string) list;
  value : float;
}

val parse : string -> (sample list, string) result
(** Extract every sample line, unescaping label values; comment lines
    are skipped without structural checks. *)

val validate : string -> (sample list, string) result
(** {!parse} plus structural OpenMetrics checks: terminal [# EOF],
    unique [# TYPE] per family, every sample attributable to a declared
    family with the sample-name shape its type requires ([_total] for
    counters; [_bucket]/[_count]/[_sum] for histograms), non-negative
    counters, and cumulative histogram buckets ending in a [+Inf]
    bucket that agrees with [_count]. *)
