(** The ingest service: a loopback TCP server that turns randomized
    transaction reports into live support estimates.

    Execution runs entirely on one {!Ppdm_runtime.Pool} of domains:

    {v
              accept loop (1 domain)
                   | bounded pending-connection queue
         session workers (jobs domains)  -- framing, handshake, validation
                   | bounded per-shard report queues (backpressure)
            shard folders (shards domains) -- batch folds into Stream
    v}

    Every queue is bounded, so a slow stage pushes back on its producers
    (ultimately on the clients' TCP windows) instead of growing memory.
    Estimates update incrementally per batch; a snapshot merges the
    per-shard accumulators with {!Ppdm.Stream.merge} and inverts
    [ŝ = P⁻¹ŝ'] — the statistic is a sum of integer histograms, so the
    result is bit-identical to a sequential fold of the same reports at
    any job and shard count. *)

open Ppdm_data
open Ppdm

type config = {
  port : int;  (** TCP port on 127.0.0.1; 0 picks an ephemeral one *)
  jobs : int;  (** session-worker domains *)
  shards : int;  (** ingest shards, one folder domain each *)
  batch : int;  (** max reports folded per batch *)
  queue_capacity : int;  (** per-shard queue bound (the backpressure knob) *)
  max_frame : int;  (** frame payload cap on every session *)
  scheme : Randomizer.t;  (** the operator clients must match *)
  itemsets : Itemset.t list;  (** tracked itemsets (estimates served) *)
  admin_port : int option;
      (** when set, a second loopback listener serves the {!Admin} plane
          ([/metrics], [/healthz], [/readyz]) on this port (0: ephemeral)
          and the periodic sampler runs; metrics recording is enabled for
          the server's lifetime (restored at exit).  The data plane's
          wire protocol and every snapshot byte are unaffected. *)
  sampler_period_ns : int;  (** admin sampler period (min 1ms) *)
}

val default_config : scheme:Randomizer.t -> itemsets:Itemset.t list -> config
(** port 0, jobs 2, shards 2, batch 256, queue capacity 4096,
    {!Framing.default_max_frame}, no admin plane, 1s sampler period. *)

type stats = { reports : int; sessions : int }
(** Totals over the server's lifetime (reports = folded into shards). *)

type t
(** A running server (on its own domains). *)

val start : config -> t
(** Bind and start serving; returns once the socket is listening.
    @raise Invalid_argument on a non-positive jobs/shards/batch/capacity.
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The actual listening port (useful with [port = 0]). *)

val admin_port : t -> int option
(** The admin plane's listening port, when configured. *)

val stop : t -> stats
(** Ask the server to stop (as a client [Shutdown] frame would), wait for
    it to wind down, and return its totals.  Idempotent. *)

val wait : t -> stats
(** Wait for the server to stop on its own (a client [Shutdown]). *)

val snapshot_estimates : t -> flush:bool -> (Itemset.t * Estimator.t option) list
(** The live estimates, one per tracked itemset in configuration order
    ([None] until an itemset has observations).  With [flush], waits for
    every queued report to be folded first.  This is the same computation
    the wire snapshot serves, exposed for in-process verification. *)

val snapshot_json : t -> flush:bool -> string
(** The wire snapshot: what a [Snapshot_request] returns. *)

val run : ?ready:(int -> unit) -> ?admin_ready:(int -> unit) -> config -> stats
(** Blocking variant for the CLI: serve until a client sends [Shutdown].
    [ready] is called with the bound data port once listening;
    [admin_ready] with the bound admin port when the admin plane is
    configured. *)
