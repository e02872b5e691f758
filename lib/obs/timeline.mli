(** The events a {!Trace} records, and the two file formats
    {!Trace.write_file} renders them in.  Pure: no rings, no clock. *)

type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  cat : string;  (** coarse grouping: "span", "pool", "trace", ... *)
  ts_ns : int;  (** {!Metrics.now_ns} at record time *)
  domain : int;  (** recording domain's id — the timeline lane *)
  seq : int;  (** per-domain record order; ties and pairing use it *)
}

val to_chrome_json : dropped:int -> event list -> Json.t
(** Render events as a Chrome trace-event array: one object per event
    with [ph] ("B"/"E"/"i"), [ts] (microseconds), [pid] (always 1),
    [tid] (domain id), [name], and [cat] fields.  When [dropped > 0] a
    final counter event named ["trace.dropped"] records the loss in the
    trace itself, its count in [args.dropped]. *)

val to_folded : event list -> string
(** Render events as folded-stack lines (["a;b;c self_ns\n"], the input
    of [flamegraph.pl] and speedscope): per domain, begin/end pairs are
    matched in record order, durations clamp at 0 (wall clock), self
    time is duration minus children.  Unpaired events — expected after
    ring overflow — are tolerated: an orphan End is skipped, a
    still-open Begin closes at its domain's last timestamp. *)
