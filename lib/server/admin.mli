(** The admin plane: minimal HTTP/1.0 on a second loopback listener.

    Three GET endpoints: [/metrics] (OpenMetrics text, rendered on
    demand), [/healthz] (liveness), [/readyz] (readiness — the server is
    accepting and its queues are below high-water).  One request per
    connection, [Connection: close], a hard request-size cap, and a 1s
    read timeout, so a slow or hostile scraper can stall only this loop
    — the data plane shares nothing with it but the stop flag and
    read-only probe closures. *)

type handlers = {
  metrics : unit -> string;
      (** the exposition body; an exception answers 500 *)
  healthy : unit -> bool;  (** liveness: 200 / 503 *)
  ready : unit -> bool * string;  (** readiness verdict + reason body *)
}

val serve_loop : Unix.file_descr -> stop:bool Atomic.t -> handlers -> unit
(** Accept and answer requests one at a time until [stop] is set
    (checked every 50ms while idle); closes the listener on exit.  Run
    as one pool task next to the data-plane stages.  Non-GET methods
    answer 405, unknown paths 404, malformed request lines 400. *)

val fetch : port:int -> string -> (int * string, string) result
(** Minimal client: one HTTP/1.0 GET to 127.0.0.1:[port], read to EOF.
    [Ok (status, body)], or [Error message] on connect/read failure —
    used by [ppdm top], [ppdm stat], tests, and fault scenarios. *)
