(* The serving workload: `ppdm serve` as a child process.  One domain of
   this process replays randomized reports on one connection, open loop;
   a second domain probes freshness with flushed snapshots on a control
   connection, closed loop, beside the report writes. *)

open Ppdm_prng
open Ppdm_data
open Ppdm
open Ppdm_runtime
module Client = Ppdm_server.Client
module J = Ppdm_obs.Json

let universe = 200
let tx_size = 5

type config = {
  pool : int;  (** distinct reports, replayed cyclically *)
  low : float;  (** reports/s of the first open-loop phase *)
  high : float;  (** reports/s of the second *)
  burst : int;  (** reports per saturation burst *)
  bursts : int;
  operator : string list;  (** the server's operator flags *)
  make_scheme : unit -> Randomizer.t;  (** what those flags build *)
}

(* The full run serves the default optimized operator; the smoke swaps in
   cut-and-paste, whose set-up takes no time. *)
let config ~smoke =
  if smoke then
    { pool = 2_000; low = 1_000.; high = 3_000.; burst = 5_000; bursts = 3;
      operator = [ "--operator"; "cutpaste"; "--cutoff"; "3"; "--rho"; "0.2" ];
      make_scheme = (fun () -> Randomizer.cut_and_paste ~universe ~cutoff:3 ~rho:0.2) }
  else
    { pool = 100_000; low = 10_000.; high = 30_000.; burst = 100_000; bursts = 4;
      operator = [];
      make_scheme = (fun () -> Optimizer.scheme_for_estimation ~universe ~gamma:19. ()) }

(* Each open-loop phase lasts this share of the run's seconds; at the
   ~90 ms a flushed probe takes today that is about 90 probes a phase. *)
let phase_share = 0.32
let probe_period = 0.05
let pairs = List.init 10 (fun i -> (2 * i, (2 * i) + 1))
let singletons = 50

(* The server tracks its explicit itemsets first, then the singletons. *)
let tracked =
  List.map (fun (a, b) -> Itemset.of_list [ a; b ]) pairs
  @ List.init singletons Itemset.singleton

let make_reports ~seed ~scheme sz =
  let rng = Rng.create ~seed () in
  let db = Ppdm_datagen.Simple.fixed_size rng ~universe ~size:tx_size ~count:sz.pool in
  Pool.with_pool ~jobs:2 (fun pool ->
      Spans.span "randomizer" (fun () -> Parallel.randomize_db_tagged pool scheme rng db))

let send conn reports i =
  let size, y = reports.(i mod Array.length reports) in
  Client.report conn ~size y

let reports_of json =
  match J.parse json with
  | Ok v -> (
      match J.member "reports" v with
      | Some (J.Int n) -> n
      | _ -> failwith "snapshot without a report count")
  | Error e -> failwith ("snapshot JSON: " ^ e)

(* ------------------------------------------------------------ server *)

type server = {
  pid : int;
  out : in_channel;
  t0 : float;
  port : int;
  admin_port : int option;
  conn : Client.t;  (** the reporting session *)
}

(* Set-up as the user pays it: spawn, the listening line, and a reporting
   session's handshake. *)
let start ~ppdm ~scheme ~sz extra =
  let pid, out, t0 =
    Proc.spawn_piped ppdm
      ([ "serve"; "--port"; "0"; "--universe"; string_of_int universe;
         "--jobs"; "2"; "--shards"; "2"; "--singletons"; string_of_int singletons ]
      @ List.concat_map (fun (a, b) -> [ "--itemset"; Printf.sprintf "%d,%d" a b ]) pairs
      @ sz.operator @ extra)
  in
  let port = Scanf.sscanf (input_line out) "ppdm serve: listening on 127.0.0.1:%d" Fun.id in
  let admin_port =
    if List.mem "--admin-port" extra then
      Some (Scanf.sscanf (input_line out) "ppdm serve: admin plane on 127.0.0.1:%d" Fun.id)
    else None
  in
  let conn = Client.connect ~port () in
  ignore (Client.handshake conn ~scheme ~sizes:[ tx_size ] ());
  ({ pid; out; t0; port; admin_port; conn }, Proc.now () -. t0)

(* Wait for the server to exit after a shutdown; its exit status and the
   folded count it prints last. *)
let reap s =
  let tail = In_channel.input_all s.out in
  close_in s.out;
  let o = Proc.reap s.pid ~t0:s.t0 in
  let folded =
    List.find_map
      (fun l ->
        try Scanf.sscanf l "ppdm serve: stopped after %_d sessions, %d reports folded" Option.some
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      (String.split_on_char '\n' tail)
  in
  (o, folded)

let scrape port =
  match Ppdm_server.Admin.fetch ~port "/metrics" with
  | Ok (200, body) -> (
      match Ppdm_obs.Exposition.parse body with
      | Ok samples -> samples
      | Error e -> failwith ("/metrics: " ^ e))
  | Ok (status, _) -> failwith (Printf.sprintf "/metrics: HTTP %d" status)
  | Error e -> failwith ("/metrics: " ^ e)

let queue_depth samples =
  List.fold_left
    (fun acc (s : Ppdm_obs.Exposition.sample) ->
      if s.name = "ppdm_server_queue_depth" && List.mem_assoc "shard" s.labels
      then Float.max acc s.value
      else acc)
    0. samples

(* (exclusive upper edge, cumulative count) of the fold-latency window
   histogram, ascending. *)
let latency_buckets samples =
  List.filter_map
    (fun (s : Ppdm_obs.Exposition.sample) ->
      if s.name <> "ppdm_server_fold_latency_ns_bucket" then None
      else
        Option.map
          (fun le -> ((if le = "+Inf" then infinity else float_of_string le), s.value))
          (List.assoc_opt "le" s.labels))
    samples
  |> List.sort compare

(* ------------------------------------------------------------ phases *)

type phase = {
  label : string;
  rate : float;
  start : float;
  first : int;  (** global index of the phase's first report *)
  count : int;
}

let scheduled p i = p.start +. (float_of_int (i - p.first) /. p.rate)

(* Report i is due at [scheduled p i] whether or not the server keeps up;
   returns how late each report went out. *)
let open_loop conn reports p =
  let lags = Array.make p.count 0. in
  let rec go sent =
    let now = Proc.now () in
    let due = min p.count (1 + int_of_float ((now -. p.start) *. p.rate)) in
    for k = sent to due - 1 do
      lags.(k) <- now -. scheduled p (p.first + k);
      send conn reports (p.first + k)
    done;
    if due < p.count then begin
      Unix.sleepf 0.0005;
      go due
    end
  in
  go 0;
  lags

type probe = { sent : float; replied : float; reports : int }

(* Closed loop: one flushed snapshot at a time, at most one per period.
   With an admin port, the queue depths are scraped after each probe. *)
let prober ctl ~stop ~admin () =
  let probes = ref [] and failures = ref 0 and depths = ref [] in
  let rec go seq =
    if not (Atomic.get stop) then
      match
        Spans.span ~tag:(string_of_int seq) "probe" (fun () ->
            let t0 = Proc.now () in
            let n = reports_of (Client.snapshot ctl ~flush:true) in
            (t0, Proc.now (), n))
      with
      | sent, replied, reports ->
          probes := { sent; replied; reports } :: !probes;
          Option.iter (fun port -> depths := (replied, queue_depth (scrape port)) :: !depths) admin;
          Unix.sleepf (Float.max 0. (sent +. probe_period -. Proc.now ()));
          go (seq + 1)
      | exception (Failure _ | Client.Server_error _ | Unix.Unix_error _) ->
          incr failures
  in
  go 0;
  (List.rev !probes, !failures, !depths)

(* Bursts as fast as the socket takes them; each ends with a flushed
   snapshot on the reporting session, so its time covers folding too. *)
let saturate conn reports ~next ~sz ~time_calls =
  let calls = Array.make (if time_calls then sz.burst * sz.bursts else 0) 0. in
  let failures = ref 0 in
  let walls =
    List.init sz.bursts (fun b ->
        Spans.span ~tag:(string_of_int b) "burst" (fun () ->
            let t0 = Proc.now () in
            for k = 0 to sz.burst - 1 do
              if time_calls then begin
                let a = Proc.now () in
                send conn reports (!next + k);
                calls.((b * sz.burst) + k) <- Proc.now () -. a
              end
              else send conn reports (!next + k)
            done;
            next := !next + sz.burst;
            if reports_of (Client.snapshot conn ~flush:true) <> !next then incr failures;
            Proc.now () -. t0))
  in
  (walls, calls, !failures)

type observed = {
  setups : float list;
  phases : (phase * float array) list;  (** with each report's send lag *)
  phase_end_scrapes : Ppdm_obs.Exposition.sample list list;
  probes : probe list;
  probe_failures : int;
  depths : (float * float) list;  (** (time, deepest shard queue) *)
  bursts : float list;
  calls : float array;
  sat : float * float;
  total : int;
  final : string;  (** the last flushed snapshot's JSON *)
  failures : int;
  server : Proc.outcome;
}

(* One server session: [starts] set-ups (all but the last stopped again),
   the two open-loop phases unless [with_phases] is false, saturation,
   a final flushed snapshot, shutdown.  With [trace_file] the server runs
   its admin plane and writes its own trace there, and every report call
   is timed. *)
let session ?trace_file ~ppdm ~scheme ~reports ~sz ~seconds ~starts ~with_phases () =
  let extra =
    match trace_file with
    | Some f -> [ "--admin-port"; "0"; "--sampler-period-ms"; "50"; "--trace"; f ]
    | None -> []
  in
  let rec boot k acc =
    let s, dt = start ~ppdm ~scheme ~sz extra in
    if k <= 1 then (s, List.rev (dt :: acc))
    else begin
      Client.shutdown s.conn;
      Client.close s.conn;
      Proc.check_ok "ppdm serve" (fst (reap s));
      boot (k - 1) (dt :: acc)
    end
  in
  let server, setups = Spans.span "setup" (fun () -> boot starts []) in
  let ctl = Client.connect ~port:server.port () in
  ignore (Client.handshake ctl ~sizes:[] ());
  let next = ref 0 in
  let phases, phase_end_scrapes, (probes, probe_failures, depths) =
    if not with_phases then ([], [], ([], 0, []))
    else begin
      let stop = Atomic.make false in
      let p = Domain.spawn (prober ctl ~stop ~admin:server.admin_port) in
      let phases =
        List.map
          (fun (label, rate) ->
            Spans.span ("phase." ^ label) (fun () ->
                let p =
                  { label; rate; start = Proc.now (); first = !next;
                    count = int_of_float (phase_share *. seconds *. rate) }
                in
                let lags = open_loop server.conn reports p in
                next := !next + p.count;
                ((p, lags), Option.map scrape server.admin_port)))
          [ ("r10k", sz.low); ("r30k", sz.high) ]
      in
      Atomic.set stop true;
      (List.map fst phases, List.filter_map snd phases, Domain.join p)
    end
  in
  let sat0 = Proc.now () in
  let bursts, calls, burst_failures =
    Spans.span "phase.sat" (fun () ->
        saturate server.conn reports ~next ~sz ~time_calls:(trace_file <> None))
  in
  let sat1 = Proc.now () in
  let final, (outcome, folded) =
    Spans.span "stop" (fun () ->
        let final = Client.snapshot ctl ~flush:true in
        Client.close server.conn;
        Client.shutdown ctl;
        Client.close ctl;
        (final, reap server))
  in
  {
    setups; phases; phase_end_scrapes; probes; probe_failures; depths; bursts;
    calls; sat = (sat0, sat1); total = !next; final;
    failures =
      burst_failures
      + List.length
          (List.filter not [ outcome.Proc.status = 0; folded = Some !next ]);
    server = outcome;
  }

(* ------------------------------------------------------------ checks *)

(* The final snapshot must equal, bit for bit, a sequential in-process
   fold of every report sent.  Reports replay the pool cyclically, so the
   fold is [total / pool] copies of the pool's statistic plus its first
   [total mod pool] reports, merged (the statistic is an integer sum). *)
let snapshot_matches ~scheme reports o =
  let p = Array.length reports in
  let fold rows =
    List.map
      (fun itemset ->
        let acc = Stream.create ~scheme ~itemset in
        Stream.observe_all acc rows;
        acc)
      tracked
  in
  let full = fold reports and part = fold (Array.sub reports 0 (o.total mod p)) in
  let expected =
    List.map2
      (fun f pt -> Stream.estimate (Stream.merge (pt :: List.init (o.total / p) (fun _ -> f))))
      full part
  in
  let same json x =
    match json with
    | Some (J.Float f) -> Float.equal f x
    | Some (J.Int i) -> Float.equal (float_of_int i) x
    | Some J.Null -> not (Float.is_finite x)
    | _ -> false
  in
  let matches item itemset (e : Estimator.t) =
    J.member "items" item
    = Some (J.List (List.map (fun i -> J.Int i) (Itemset.to_list itemset)))
    && J.member "observed" item = Some (J.Int o.total)
    && same (J.member "support" item) e.support
    && same (J.member "sigma" item) e.sigma
  in
  match Result.map (J.member "itemsets") (J.parse o.final) with
  | Ok (Some (J.List items)) when List.length items = List.length tracked ->
      List.for_all2 (fun item (itemset, e) -> matches item itemset e)
        items (List.combine tracked expected)
  | _ -> false

let failures ~scheme reports o =
  o.probe_failures + o.failures
  + if snapshot_matches ~scheme reports o then 0 else 1

let attempted o = o.total + List.length o.probes + o.probe_failures

(* ------------------------------------------------------------ metrics *)

let in_phase o label t =
  List.exists (fun (p, _) -> p.label = label && t >= p.start && t < scheduled p (p.first + p.count)) o.phases

(* Reply time minus the time the newest report the reply covers was due. *)
let freshness_ms o label =
  List.filter_map
    (fun pr ->
      let j = pr.reports - 1 in
      match List.find_opt (fun (p, _) -> j >= p.first && j < p.first + p.count) o.phases with
      | Some (p, _) when in_phase o label pr.sent -> Some (1000. *. (pr.replied -. scheduled p j))
      | _ -> None)
    o.probes

let lags_ms o label =
  List.concat_map
    (fun (p, lags) -> if p.label = label then Array.to_list (Array.map (fun l -> 1000. *. l) lags) else [])
    o.phases

let run ~ppdm ~seed ~seconds ~setup_reps ~smoke =
  let sz = config ~smoke in
  let scheme = sz.make_scheme () in
  let reports = make_reports ~seed ~scheme sz in
  let o =
    session ~ppdm ~scheme ~reports ~sz ~seconds ~starts:setup_reps ~with_phases:true ()
  in
  let f10 = freshness_ms o "r10k" and f30 = freshness_ms o "r30k" in
  (* As for batch reps, the fastest burst. *)
  let fastest = List.fold_left Float.min infinity o.bursts in
  let n xs = float_of_int (List.length xs) in
  Results.make ~workload:"ingest" ~traced:false ~attempted:(attempted o)
    ~failed:(failures ~scheme reports o)
    ~measured:
      [
        ("setup_s", Stats.median o.setups);
        ("wall_s", fastest);
        ("peak_rss_mb", o.server.peak_rss_mb);
        ("fresh_ms", Stats.median f30);
      ]
    ~extra:
      [
        ("fresh_n.r30k", n f30, "count");
        ("fresh_p90_ms.r30k", Stats.percentile f30 0.9, "ms");
        ("fresh_p50_ms.r10k", Stats.median f10, "ms");
        ("fresh_p90_ms.r10k", Stats.percentile f10 0.9, "ms");
        ("fresh_n.r10k", n f10, "count");
        ("max_rps", float_of_int sz.burst /. fastest, "1/s");
        ("burst_median_s", Stats.median o.bursts, "s");
        ("send_lag_p99_ms.r10k", Stats.percentile (lags_ms o "r10k") 0.99, "ms");
        ("send_lag_p99_ms.r30k", Stats.percentile (lags_ms o "r30k") 0.99, "ms");
        ("server_cpu_s", o.server.cpu_s, "s");
      ]

(* ------------------------------------------------------------ traced *)

(* Per folder domain, the share of the window spent inside `server.fold`
   slices of the server's own trace.  Its rings keep the newest events,
   so each domain is measured from its first retained event on. *)
let folder_busy path (w0, w1) =
  let us_s = function Some (J.Float f) -> f /. 1e6 | Some (J.Int i) -> float_of_int i /. 1e6 | _ -> nan in
  let events =
    match J.parse (Proc.read_file path) with
    | Ok (J.List evs) -> evs
    | _ -> failwith "server trace does not parse"
  in
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      if J.member "name" ev = Some (J.String "server.fold") then begin
        let tid = J.member "tid" ev and ts = us_s (J.member "ts" ev) in
        let first, busy, open_at =
          Option.value (Hashtbl.find_opt lanes tid) ~default:(ts, 0., None)
        in
        let lane =
          match (J.member "ph" ev, open_at) with
          | Some (J.String "B"), _ -> (first, busy, Some ts)
          | Some (J.String "E"), Some b ->
              (first, busy +. Float.max 0. (Float.min ts w1 -. Float.max b w0), None)
          | _ -> (first, busy, open_at)
        in
        Hashtbl.replace lanes tid lane
      end)
    events;
  let shares =
    Hashtbl.fold (fun _ (first, busy, _) acc -> (busy /. (w1 -. Float.max w0 first)) :: acc) lanes []
  in
  List.fold_left ( +. ) 0. shares /. float_of_int (max 1 (List.length shares))

(* Layer costs replayed in-process on the same reports: the decode and the
   fold a session and a shard folder run per report, and the merge and
   estimate a snapshot runs. *)
let replay ~scheme reports =
  let n = float_of_int (Array.length reports) in
  let frames =
    Array.map (fun (size, items) -> Ppdm_server.Wire.encode (Report { size; items })) reports
  in
  Spans.span "replay.wire" (fun () ->
      Array.iter
        (fun b -> match Ppdm_server.Wire.decode b with Ok _ -> () | Error e -> failwith e)
        frames);
  let shards = Array.init 2 (fun _ -> List.map (fun itemset -> Stream.create ~scheme ~itemset) tracked) in
  Spans.span "replay.fold" (fun () ->
      Array.iteri
        (fun i (size, y) -> List.iter (fun acc -> Stream.observe acc ~size y) shards.(i land 1))
        reports);
  let snapshots = 10 in
  Spans.span "replay.snapshot" (fun () ->
      for _ = 1 to snapshots do
        List.iter2 (fun a b -> ignore (Stream.estimate (Stream.merge [ a; b ]))) shards.(0) shards.(1)
      done);
  let s = Spans.seconds in
  [
    ("wire.decode_ns", s "replay.wire" *. 1e9 /. n);
    ("fold.ns_per_report", s "replay.fold" *. 1e9 /. n);
    ("snapshot.estimate_ms", s "replay.snapshot" *. 1e3 /. float_of_int snapshots);
  ]

(* Prometheus-style quantile of cumulative log2 buckets: linear inside
   the bucket holding the rank. *)
let bucket_quantile buckets q =
  let total = List.fold_left (fun _ (_, c) -> c) 0. buckets in
  let rank = q *. total in
  let rec go lo lo_cum = function
    | [] -> lo
    | (edge, cum) :: rest ->
        if cum >= rank && cum > lo_cum then
          if edge = infinity then lo
          else lo +. ((edge -. lo) *. (rank -. lo_cum) /. (cum -. lo_cum))
        else go edge cum rest
  in
  go 0. 0. buckets

(* The r30k phase alone: cumulative counts at its end minus at its start. *)
let bucket_delta before after =
  let cum_at edge =
    List.fold_left (fun acc (e, c) -> if e <= edge then c else acc) 0. before
  in
  List.map (fun (e, c) -> (e, c -. cum_at e)) after

let traced ~ppdm ~dir ~seed ~seconds ~smoke =
  let sz = config ~smoke in
  Spans.reset ();
  let scheme = Spans.span "scheme" sz.make_scheme in
  let reports = make_reports ~seed ~scheme sz in
  let untraced =
    session ~ppdm ~scheme ~reports ~sz ~seconds ~starts:1 ~with_phases:false ()
  in
  let trace_file = Filename.concat dir "server-trace.json" in
  let o =
    Spans.span "session" (fun () ->
        session ~trace_file ~ppdm ~scheme ~reports ~sz ~seconds ~starts:1
          ~with_phases:true ())
  in
  let replayed = Spans.span "replay" (fun () -> replay ~scheme reports) in
  Spans.write_chrome (Filename.concat dir "trace.json");
  let fold_latency q =
    match o.phase_end_scrapes with
    | [ r10k; r30k ] ->
        bucket_quantile (bucket_delta (latency_buckets r10k) (latency_buckets r30k)) q /. 1e6
    | _ -> nan
  in
  let r30k_probes = List.filter (fun pr -> in_phase o "r30k" pr.sent) o.probes in
  let items_out =
    Array.fold_left (fun acc (_, y) -> acc +. float_of_int (Itemset.cardinal y)) 0. reports
  in
  Results.make ~workload:"ingest" ~traced:true
    ~attempted:(attempted untraced + attempted o)
    ~failed:(failures ~scheme reports untraced + failures ~scheme reports o)
    ~measured:
      ([
         ("scheme.s", Spans.seconds "scheme");
         ("randomizer.s", Spans.seconds "randomizer");
         ("randomizer.ns_per_tx", Spans.seconds "randomizer" *. 1e9 /. float_of_int sz.pool);
         ("randomizer.items_out", items_out);
         ("client.report_us_p50", 1e6 *. Stats.median (Array.to_list o.calls));
         ("client.report_us_p99", 1e6 *. Stats.percentile (Array.to_list o.calls) 0.99);
         ("probe.rtt_p50_ms", 1000. *. Stats.median (List.map (fun pr -> pr.replied -. pr.sent) r30k_probes));
         ("server.fold_latency_p50_ms", fold_latency 0.5);
         ("server.fold_latency_p99_ms", fold_latency 0.99);
         ( "server.queue_depth_max",
           List.fold_left
             (fun acc (t, d) -> if in_phase o "r30k" t then Float.max acc d else acc)
             0. o.depths );
         ("server.folder_busy", folder_busy trace_file o.sat);
         ("loadgen.send_lag_p99_ms", Stats.percentile (lags_ms o "r30k") 0.99);
         ("dark_share", Spans.dark_share "session");
         ( "trace_overhead",
           (List.fold_left Float.min infinity o.bursts
            /. List.fold_left Float.min infinity untraced.bursts) -. 1. );
       ]
      @ replayed)
    ~extra:[ ("probes.r30k", float_of_int (List.length r30k_probes), "count") ]
