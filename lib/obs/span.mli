(** Hierarchical wall-clock timers.

    [with_ ~name f] times [f] and files the duration under the span tree
    of the current domain, nested beneath whatever span is currently open
    on that domain.  Repeated spans with the same name at the same
    position aggregate (total time + call count) rather than appending,
    so the tree stays bounded no matter how hot the loop.

    Sharding and merging follow {!Metrics}: each domain owns its tree,
    {!tree} merges them by name with commutative sums and sorts children
    by name, so the report is independent of domain scheduling.  When
    both metrics and tracing are disabled, [with_] is the bare call
    [f ()] after one flag check ({!Metrics.any_enabled} — the two flags
    share an atomic word).

    Spans also feed the event timeline: when {!Trace.enabled}, every
    [with_] emits a begin/end event pair (category ["span"]), paired even
    across exceptions.  Durations clamp at 0 — {!Metrics.now_ns} is a
    wall clock and can step backwards under NTP. *)

type t = {
  name : string;
  total_ns : int;  (** summed wall-clock time of all calls *)
  calls : int;
  children : t list;  (** sorted by name *)
}

val with_ : name:string -> (unit -> 'a) -> 'a
(** Time [f] under [name].  Exceptions propagate; the partial duration is
    still recorded. *)

val tree : unit -> t list
(** The merged span forest of every domain, roots sorted by name.  Take it
    only at a quiescent point (no domain inside [with_]). *)

val reset : unit -> unit
(** Drop every recorded span. *)
