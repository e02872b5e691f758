open Ppdm_data
open Ppdm
open Ppdm_runtime

type config = {
  port : int;
  jobs : int;
  shards : int;
  batch : int;
  queue_capacity : int;
  max_frame : int;
  scheme : Randomizer.t;
  itemsets : Itemset.t list;
  admin_port : int option;
  sampler_period_ns : int;
}

let default_config ~scheme ~itemsets =
  {
    port = 0;
    jobs = 2;
    shards = 2;
    batch = 256;
    queue_capacity = 4096;
    max_frame = Framing.default_max_frame;
    scheme;
    itemsets;
    admin_port = None;
    sampler_period_ns = 1_000_000_000;
  }

type stats = { reports : int; sessions : int }

(* State shared between the server domains and the controlling one. *)
type shared = {
  config : config;
  shards : Shard.t array;
  (* A scheme is a lazily-populated per-size cache (a plain Hashtbl), so
     every resolving operation — the handshake's [same_parameters], the
     snapshot's merge + estimate — serializes through this lock.  Folding
     ([Stream.observe]) never resolves and runs lock-free. *)
  scheme_lock : Mutex.t;
  stop : bool Atomic.t;
  sessions : int Atomic.t; (* sessions started (counted at handshake accept) *)
  accepting : bool Atomic.t; (* acceptor loop is live (feeds /readyz) *)
}

let min_max_frame = 16

let validate config =
  if config.jobs < 1 then invalid_arg "Serve: jobs < 1";
  if config.shards < 1 then invalid_arg "Serve: shards < 1";
  if config.batch < 1 then invalid_arg "Serve: batch < 1";
  if config.queue_capacity < 1 then invalid_arg "Serve: queue capacity < 1";
  if config.max_frame < min_max_frame then invalid_arg "Serve: max_frame < 16";
  if config.sampler_period_ns < 1_000_000 then
    invalid_arg "Serve: sampler period < 1ms";
  if config.itemsets = [] then invalid_arg "Serve: no tracked itemsets";
  let universe = Randomizer.universe config.scheme in
  List.iter
    (fun itemset ->
      let k = Itemset.cardinal itemset in
      if k = 0 then invalid_arg "Serve: empty tracked itemset";
      if Itemset.nth itemset (k - 1) >= universe then
        invalid_arg "Serve: tracked item outside the universe")
    config.itemsets

let make_shared config =
  {
    config;
    shards =
      Array.init config.shards (fun _ ->
          Shard.create ~scheme:config.scheme ~itemsets:config.itemsets
            ~capacity:config.queue_capacity);
    scheme_lock = Mutex.create ();
    stop = Atomic.make false;
    sessions = Atomic.make 0;
    accepting = Atomic.make false;
  }

(* ------------------------------------------------------------ snapshots *)

let shared_estimates sh ~flush =
  if flush then Array.iter Shard.quiesce sh.shards;
  Mutex.lock sh.scheme_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.scheme_lock)
    (fun () ->
      (* Each shard adds its accumulators into one fresh accumulator per
         tracked itemset, atomically w.r.t. its batch folds; the sums are
         integer histograms, so the result equals a sequential fold of
         the same reports regardless of how sessions and shards
         interleaved. *)
      let scheme = sh.config.scheme in
      let totals =
        List.map
          (fun itemset -> Stream.create ~scheme ~itemset)
          sh.config.itemsets
      in
      Array.iter (fun shard -> Shard.merge_into shard totals) sh.shards;
      List.map
        (fun acc ->
          let itemset = Stream.itemset acc in
          if Stream.observed acc = 0 then (itemset, None)
          else (itemset, Some (Stream.estimate acc)))
        totals)

let shared_folded sh =
  Array.fold_left (fun acc shard -> acc + Shard.folded shard) 0 sh.shards

let float_or_null f =
  if Float.is_finite f then Ppdm_obs.Json.Float f else Ppdm_obs.Json.Null

let shared_queued sh =
  Array.fold_left (fun acc shard -> acc + Shard.depth shard) 0 sh.shards

(* Server-side operational counters, computed from the deterministic
   shared state (never from the Metrics registry) and always present, so
   [ppdm load] stdout is byte-identical whether or not the admin plane
   or --stats is on.  With [flush], sessions/folded/queued are exact:
   sessions are counted at handshake time (before the Welcome that the
   client's connect waits on), and the flush barrier empties the
   queues. *)
let shared_metrics_json sh =
  Ppdm_obs.Json.Obj
    [
      ("sessions", Ppdm_obs.Json.Int (Atomic.get sh.sessions));
      ("folded", Ppdm_obs.Json.Int (shared_folded sh));
      ("queued", Ppdm_obs.Json.Int (shared_queued sh));
      ("shards", Ppdm_obs.Json.Int (Array.length sh.shards));
    ]

let shared_snapshot_json sh ~flush =
  let estimates = shared_estimates sh ~flush in
  let itemset_json (itemset, est) =
    let items =
      Ppdm_obs.Json.List
        (List.map (fun i -> Ppdm_obs.Json.Int i) (Itemset.to_list itemset))
    in
    let fields =
      match est with
      | None -> [ ("items", items); ("observed", Ppdm_obs.Json.Int 0) ]
      | Some e ->
          [
            ("items", items);
            ("observed", Ppdm_obs.Json.Int e.Estimator.n_transactions);
            ("support", float_or_null e.Estimator.support);
            ("sigma", float_or_null e.Estimator.sigma);
          ]
    in
    Ppdm_obs.Json.Obj fields
  in
  Ppdm_obs.Json.to_string
    (Ppdm_obs.Json.Obj
       [
         ("universe", Ppdm_obs.Json.Int (Randomizer.universe sh.config.scheme));
         ("reports", Ppdm_obs.Json.Int (shared_folded sh));
         ("itemsets", Ppdm_obs.Json.List (List.map itemset_json estimates));
         ("metrics", shared_metrics_json sh);
       ])

(* ------------------------------------------------------------- sockets *)

(* A failed bind names the address it wanted in the error's argument,
   so the CLI can report "127.0.0.1:<port>: Address already in use". *)
let bind_listener port =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    (try Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with Unix.Unix_error (e, fn, _) ->
       raise (Unix.Unix_error (e, fn, Printf.sprintf "127.0.0.1:%d" port)));
    Unix.listen listener 64;
    Unix.getsockname listener
  with
  | Unix.ADDR_INET (_, port) -> (listener, port)
  | Unix.ADDR_UNIX _ ->
      Unix.close listener;
      invalid_arg "Serve: unexpected socket family"
  | exception e ->
      Unix.close listener;
      raise e

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------ the server *)

(* ---------------------------------------------------------- admin plane *)

let admin_handlers sh =
  {
    Admin.metrics = (fun () -> Ppdm_obs.Exposition.render ());
    healthy = (fun () -> true);
    ready =
      (fun () ->
        if Atomic.get sh.stop then (false, "stopping")
        else if not (Atomic.get sh.accepting) then (false, "not accepting")
        else begin
          (* High-water: any shard queue at >= 90% of capacity means a
             new client would mostly block on backpressure. *)
          let cap = sh.config.queue_capacity in
          if Array.exists (fun s -> Shard.depth s * 10 >= cap * 9) sh.shards
          then (false, "queues above high-water")
          else (true, "ok")
        end);
  }

(* The periodic sampler: every [sampler_period_ns] it gauges per-shard
   queue depth and backlog and the session count.  It reads the same
   shared state the snapshot does — depth is one atomic-ish queue
   counter, folded takes the shard lock a folder holds only per batch —
   so its cost is a few loads per period, far below the <1% ingest
   budget (see bench B11). *)
let sampler sh () =
  let period = float_of_int sh.config.sampler_period_ns /. 1e9 in
  let rec go last =
    if Atomic.get sh.stop then ()
    else begin
      Unix.sleepf (Float.min 0.05 period);
      let now = Ppdm_obs.Metrics.now_ns () in
      if float_of_int (now - last) /. 1e9 >= period then begin
        Ppdm_obs.Metrics.incr "server.sampler.ticks";
        Ppdm_obs.Metrics.gauge "server.sessions.started"
          (float_of_int (Atomic.get sh.sessions));
        Array.iteri
          (fun i shard ->
            let s = string_of_int i in
            Ppdm_obs.Metrics.gauge
              ("server.queue.depth.s" ^ s)
              (float_of_int (Shard.depth shard));
            Ppdm_obs.Metrics.gauge
              ("server.folded.s" ^ s)
              (float_of_int (Shard.folded shard)))
          sh.shards;
        go now
      end
      else go last
    end
  in
  go (Ppdm_obs.Metrics.now_ns ())

let serve_on listener ?admin sh =
  let config = sh.config in
  let pending = Ingest.create ~capacity:64 in
  let verify_scheme client ~sizes =
    Mutex.lock sh.scheme_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.scheme_lock)
      (fun () -> Randomizer.same_parameters config.scheme client ~sizes)
  in
  let session_config =
    {
      Session.scheme = config.scheme;
      universe = Randomizer.universe config.scheme;
      itemsets = config.itemsets;
      max_frame = config.max_frame;
      verify_scheme;
      snapshot = (fun ~flush -> shared_snapshot_json sh ~flush);
      request_shutdown = (fun () -> Atomic.set sh.stop true);
    }
  in
  let acceptor () =
    let rec go () =
      if Atomic.get sh.stop then ()
      else
        match Unix.select [ listener ] [] [] 0.05 with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.accept listener with
            | fd, _ ->
                Ppdm_obs.Metrics.incr "server.accepted";
                Ppdm_obs.Trace.instant ~name:"server.accept" ~cat:"server";
                if not (Ingest.push pending fd) then close_quietly fd;
                go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    Atomic.set sh.accepting true;
    go ();
    Atomic.set sh.accepting false;
    close_quietly listener;
    Ingest.close pending
  in
  let workers_left = Atomic.make config.jobs in
  let worker () =
    let rec go () =
      match Ingest.pop pending with
      | None -> ()
      | Some fd ->
          (* Counted when the session {e starts}: the increment then
             happens-before the Welcome reply, so any client that has
             completed its handshake is already in the count read by a
             later snapshot — making the session count in a flushed
             control snapshot deterministic. *)
          ignore (Atomic.fetch_and_add sh.sessions 1);
          Fun.protect
            ~finally:(fun () -> close_quietly fd)
            (fun () -> Session.run session_config ~shards:sh.shards fd);
          Ingest.done_with pending;
          go ()
    in
    go ();
    (* The last worker out closes the shards: no session can submit any
       more, so the folders drain what is queued and exit. *)
    if Atomic.fetch_and_add workers_left (-1) = 1 then
      Array.iter Shard.close sh.shards
  in
  let folder shard () = Shard.fold_loop shard ~batch:config.batch in
  (* The admin plane rides on metrics; turn them on for its lifetime
     (restored at exit) so the registry has content to expose.  This
     cannot change data-plane results or stdout — the determinism
     contract instrumentation has obeyed since PR 2. *)
  let restore_metrics =
    match admin with
    | None -> fun () -> ()
    | Some _ ->
        let was = Ppdm_obs.Metrics.enabled () in
        Ppdm_obs.Metrics.set_enabled true;
        Ppdm_obs.Window.define_meter "server.ingest";
        Ppdm_obs.Window.define_histogram "server.fold.latency_ns";
        Ppdm_obs.Exposition.note_start ();
        fun () -> Ppdm_obs.Metrics.set_enabled was
  in
  let admin_tasks =
    match admin with
    | None -> [||]
    | Some admin_listener ->
        [|
          (fun () ->
            Admin.serve_loop admin_listener ~stop:sh.stop (admin_handlers sh));
          sampler sh;
        |]
  in
  let tasks =
    Array.concat
      [
        [| acceptor |];
        Array.init config.jobs (fun _ -> worker);
        Array.map folder sh.shards;
        admin_tasks;
      ]
  in
  (* Every stage is a long-lived task, so the pool is sized to run them
     all at once: 1 acceptor + jobs workers + shards folders (+ admin
     loop and sampler when the admin plane is on). *)
  Fun.protect ~finally:restore_metrics (fun () ->
      Pool.with_pool ~jobs:(Array.length tasks) (fun pool ->
          ignore (Pool.run pool tasks)));
  { reports = shared_folded sh; sessions = Atomic.get sh.sessions }

(* ------------------------------------------------------------- handles *)

type t = {
  bound_port : int;
  admin_bound_port : int option;
  sh : shared;
  domain : stats Domain.t;
  mutable final : stats option;
}

(* Bind the admin listener (when configured) after the data listener;
   on failure close the data listener so neither leaks. *)
let bind_admin config listener =
  match config.admin_port with
  | None -> None
  | Some p -> (
      match bind_listener p with
      | admin -> Some admin
      | exception e ->
          close_quietly listener;
          raise e)

let start config =
  validate config;
  let listener, bound_port = bind_listener config.port in
  let admin = bind_admin config listener in
  let sh = make_shared config in
  let domain =
    Domain.spawn (fun () -> serve_on listener ?admin:(Option.map fst admin) sh)
  in
  { bound_port; admin_bound_port = Option.map snd admin; sh; domain;
    final = None }

let port t = t.bound_port
let admin_port t = t.admin_bound_port

let wait t =
  match t.final with
  | Some s -> s
  | None ->
      let s = Domain.join t.domain in
      t.final <- Some s;
      s

let stop t =
  Atomic.set t.sh.stop true;
  wait t

let snapshot_estimates t ~flush = shared_estimates t.sh ~flush

let run ?(ready = ignore) ?(admin_ready = ignore) config =
  validate config;
  let listener, bound_port = bind_listener config.port in
  let admin = bind_admin config listener in
  let sh = make_shared config in
  ready bound_port;
  Option.iter (fun (_, p) -> admin_ready p) admin;
  serve_on listener ?admin:(Option.map fst admin) sh
