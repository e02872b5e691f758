(** Event-timeline tracing: per-domain ring buffers of begin/end/instant
    events, exportable as Chrome trace-event JSON (chrome://tracing,
    Perfetto, catapult) or as folded stacks for flamegraph tools.

    Where {!Metrics} and {!Span} aggregate (totals, call counts, bucket
    histograms), a trace keeps {e when}: every event carries a wall-clock
    timestamp and its domain id, so worker idle gaps at batch barriers,
    serial cache warming, or a stalling Apriori level are visible on a
    timeline instead of being averaged away.

    The discipline matches {!Metrics}:

    + {b Disabled is free.}  Every recording entry point checks one
      atomic flag and returns — no allocation, no clock read.  The flag
      shares the atomic word with the metrics flag, so code serving both
      layers ([Span.with_], the pool) tests both with a single load.
    + {b No contention.}  Each domain records into its own ring; rings
      touch no shared state after the one-time registration.  Recording
      changes no computed result at any job count.
    + {b Bounded memory.}  Rings hold 65536 events each.  On overflow the
      oldest event is overwritten and the drop counted (in the written
      trace, plus the ["trace.dropped"] metrics counter when metrics are
      on) — a long run keeps the {e newest} window of events rather than
      growing without bound or silently losing the information that it
      dropped.

    Timestamps come from {!Metrics.now_ns}, a wall clock that can step
    backwards under NTP; consumers of event pairs clamp negative
    durations to 0 (see {!Timeline.to_folded}).  Call {!reset} or {!write_file}
    only at a quiescent point, like {!Metrics.snapshot}. *)

val set_enabled : bool -> unit
(** Turn tracing on or off (off initially; independent of
    [Metrics.set_enabled]).  Already-recorded events are kept. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded event and drop count, in every ring.  No command
    calls it: each traces once per process. *)

val begin_ : name:string -> cat:string -> unit
(** Open a slice on the current domain's timeline.  No-op when off. *)

val end_ : name:string -> cat:string -> unit
(** Close the most recent open slice of this [name].  No-op when off. *)

val instant : name:string -> cat:string -> unit
(** A zero-duration mark.  No-op when off. *)

val with_ : name:string -> cat:string -> (unit -> 'a) -> 'a
(** [with_ ~name ~cat f] brackets [f] in a begin/end pair.  The end event
    is emitted even when [f] raises, so timelines stay paired across
    exceptions.  When off, this is [f ()] after one flag check. *)

val write_file : string -> unit
(** Write the merged timeline of every ring, sorted by timestamp with
    (domain, seq) breaking ties, to a file: folded stacks
    ({!Timeline.to_folded}) when the path ends in [.folded], Chrome
    trace-event JSON ({!Timeline.to_chrome_json}, with the rings' drop
    count) otherwise. *)
