(* Observability-layer tests: disabled-path no-op, histogram bucketing,
   order-independent sink merges, span trees, the JSON codec, report
   rendering, and — the property the whole design hangs on — that turning
   instrumentation on changes no mined or randomized result at any job
   count. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
open Ppdm_runtime
open Ppdm_obs

(* Every test leaves the global registry the way it found it: disabled
   and empty.  The other suites run with metrics off and must not see
   residue from this one. *)
let scoped f =
  Metrics.reset ();
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Span.reset ())
    f

let test_disabled_noop () =
  scoped (fun () ->
      Metrics.set_enabled false;
      Metrics.incr "c";
      Metrics.add "c" 41;
      Metrics.gauge "g" 3.5;
      Metrics.observe "h" 7;
      ignore (Metrics.time "t" (fun () -> 1 + 1));
      Span.with_ ~name:"s" (fun () -> ());
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "no counters" 0 (List.length snap.Metrics.counters);
      Alcotest.(check int) "no gauges" 0 (List.length snap.Metrics.gauges);
      Alcotest.(check int) "no histograms" 0 (List.length snap.Metrics.histograms);
      Alcotest.(check int) "no spans" 0 (List.length (Span.tree ())))

let test_counters_and_gauges () =
  scoped (fun () ->
      Metrics.set_enabled true;
      Metrics.incr "b.count";
      Metrics.add "a.count" 5;
      Metrics.incr "b.count";
      Metrics.gauge "depth" 2.0;
      Metrics.gauge "depth" 7.5;
      Metrics.gauge "depth" 3.0;
      let snap = Metrics.snapshot () in
      Alcotest.(check (list (pair string int)))
        "counters sum, sorted by name"
        [ ("a.count", 5); ("b.count", 2) ]
        snap.Metrics.counters;
      (* within one domain a gauge is last-write-wins; Float.max applies
         when merging shards (see the sink test) *)
      Alcotest.(check (list (pair string (float 0.))))
        "gauge keeps the latest value"
        [ ("depth", 3.0) ]
        snap.Metrics.gauges;
      Metrics.reset ();
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "reset clears" 0 (List.length snap.Metrics.counters))

let test_histogram_buckets () =
  scoped (fun () ->
      Metrics.set_enabled true;
      (* bucket 0 holds the value 0; bucket i >= 1 covers 2^(i-1)..2^i-1 *)
      List.iter (Metrics.observe "h") [ 0; 1; 2; 3; 4; 7; 8; 1000; -5 ];
      let snap = Metrics.snapshot () in
      match snap.Metrics.histograms with
      | [ ("h", h) ] ->
          Alcotest.(check int) "count" 9 h.Metrics.count;
          Alcotest.(check int) "sum clamps negatives to 0" 1025 h.Metrics.sum;
          Alcotest.(check int) "exact min (after the 0 clamp)" 0 h.Metrics.min;
          Alcotest.(check int) "exact max" 1000 h.Metrics.max;
          Alcotest.(check (list (pair int int)))
            "buckets: (lower_bound, count), ascending"
            [ (0, 2); (1, 1); (2, 2); (4, 2); (8, 1); (512, 1) ]
            h.Metrics.buckets;
          Alcotest.(check int) "p0 lands in the zero bucket" 1
            (Metrics.quantile h 0.);
          Alcotest.(check int) "p50 upper bound" 4 (Metrics.quantile h 0.5);
          Alcotest.(check int) "p100 covers the top bucket" 1024
            (Metrics.quantile h 1.)
      | _ -> Alcotest.fail "expected exactly one histogram")

let test_sink_merge_order_independent () =
  let mk specs =
    let s = Metrics.Sink.create () in
    List.iter
      (fun (name, v) ->
        Metrics.Sink.add s name v;
        Metrics.Sink.observe s (name ^ ".h") v;
        Metrics.Sink.gauge s (name ^ ".g") (float_of_int v))
      specs;
    s
  in
  let a = mk [ ("x", 1); ("y", 10) ]
  and b = mk [ ("x", 2); ("z", 100) ]
  and c = mk [ ("y", 3) ] in
  let snap_of order = Metrics.Sink.merge order in
  let reference = snap_of [ a; b; c ] in
  List.iter
    (fun order ->
      let s = snap_of order in
      Alcotest.(check (list (pair string int)))
        "counters independent of merge order" reference.Metrics.counters
        s.Metrics.counters;
      Alcotest.(check (list (pair string (float 0.))))
        "gauges independent of merge order" reference.Metrics.gauges
        s.Metrics.gauges;
      Alcotest.(check int)
        "histogram count independent of merge order"
        (List.length reference.Metrics.histograms)
        (List.length s.Metrics.histograms))
    [ [ a; c; b ]; [ b; a; c ]; [ c; b; a ] ];
  Alcotest.(check (list (pair string int)))
    "summed counters"
    [ ("x", 3); ("y", 13); ("z", 100) ]
    reference.Metrics.counters;
  (* gauges resolve cross-shard conflicts by max: x.g is 1 in sink a and
     2 in sink b *)
  Alcotest.(check (option (float 0.)))
    "gauges merge by max" (Some 2.0)
    (List.assoc_opt "x.g" reference.Metrics.gauges)

let test_span_tree () =
  scoped (fun () ->
      Metrics.set_enabled true;
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ());
          Span.with_ ~name:"inner" (fun () -> ());
          Span.with_ ~name:"also" (fun () -> ()));
      Span.with_ ~name:"outer" (fun () -> ());
      match Span.tree () with
      | [ root ] ->
          Alcotest.(check string) "root name" "outer" root.Span.name;
          Alcotest.(check int) "root aggregates calls" 2 root.Span.calls;
          Alcotest.(check (list string))
            "children sorted by name, repeats aggregated"
            [ "also"; "inner" ]
            (List.map (fun c -> c.Span.name) root.Span.children);
          let inner = List.nth root.Span.children 1 in
          Alcotest.(check int) "inner calls" 2 inner.Span.calls;
          Alcotest.(check bool) "time flows up" true
            (root.Span.total_ns >= Span.total_ns root.Span.children)
      | l -> Alcotest.fail (Printf.sprintf "expected one root, got %d" (List.length l)))

let test_span_survives_exceptions () =
  scoped (fun () ->
      Metrics.set_enabled true;
      (try Span.with_ ~name:"boom" (fun () -> failwith "x")
       with Failure _ -> ());
      (* the span stack must be popped: a later span is a new root, not a
         child of the crashed one *)
      Span.with_ ~name:"after" (fun () -> ());
      Alcotest.(check (list string))
        "crashed span recorded and stack popped"
        [ "after"; "boom" ]
        (List.map (fun s -> s.Span.name) (Span.tree ())))

let test_json_roundtrip () =
  let check_roundtrip v =
    let s = Json.to_string v in
    match Json.parse s with
    | Ok v' -> Alcotest.(check string) s s (Json.to_string v')
    | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" s e)
  in
  List.iter check_roundtrip
    [
      Json.Null;
      Json.Bool true;
      Json.Int 42;
      Json.Int (-7);
      Json.Float 2.5;
      Json.String "plain";
      Json.String "esc \"quotes\" \\ and \n tab \t";
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj
        [
          ("name", Json.String "pool.tasks");
          ("value", Json.Int 12);
          ("nested", Json.List [ Json.Obj [ ("k", Json.Bool false) ] ]);
        ];
    ];
  (match Json.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing content accepted");
  (match Json.parse "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated array accepted");
  (match Json.parse "{\"u\":\"\\u00e9\"}" with
  | Ok v -> (
      match Json.member "u" v with
      | Some (Json.String s) ->
          Alcotest.(check string) "unicode escape decodes to UTF-8" "\xc3\xa9" s
      | _ -> Alcotest.fail "missing member")
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "member on non-object" true
    (Json.member "k" (Json.Int 3) = None);
  Alcotest.(check string) "non-finite floats render as null" "null"
    (Json.to_string (Json.Float Float.nan))

let test_report_json_lines_parse () =
  scoped (fun () ->
      Metrics.set_enabled true;
      Metrics.add "demo.counter" 3;
      Metrics.gauge "demo.gauge" 1.25;
      Metrics.observe "demo.hist" 100;
      Metrics.observe "demo.hist" 5;
      Span.with_ ~name:"a" (fun () -> Span.with_ ~name:"b" (fun () -> ()));
      let out = Report.to_string Report.Json in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      Alcotest.(check bool) "several lines" true (List.length lines >= 4);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok v ->
              (match Json.member "type" v with
              | Some (Json.String _) -> ()
              | _ -> Alcotest.fail (Printf.sprintf "no type field: %s" line))
          | Error e -> Alcotest.fail (Printf.sprintf "unparsable line %s: %s" line e))
        lines;
      let has_line ty name =
        List.exists
          (fun line ->
            match Json.parse line with
            | Ok v ->
                Json.member "type" v = Some (Json.String ty)
                && (Json.member "name" v = Some (Json.String name)
                   || Json.member "path" v = Some (Json.String name))
            | Error _ -> false)
          lines
      in
      Alcotest.(check bool) "counter line" true (has_line "counter" "demo.counter");
      Alcotest.(check bool) "gauge line" true (has_line "gauge" "demo.gauge");
      Alcotest.(check bool) "histogram line" true (has_line "histogram" "demo.hist");
      Alcotest.(check bool) "nested span path" true (has_line "span" "a/b");
      (* the human renderer shouldn't crash on the same state *)
      Alcotest.(check bool) "human report non-empty" true
        (String.length (Report.to_string Report.Human) > 0))

let test_format_of_string () =
  Alcotest.(check bool) "human" true (Report.format_of_string "human" = Some Report.Human);
  Alcotest.(check bool) "JSON case-insensitive" true
    (Report.format_of_string "JSON" = Some Report.Json);
  Alcotest.(check bool) "unknown" true (Report.format_of_string "xml" = None)

(* The acceptance property: metrics on vs off, jobs 1/2/4 — randomized
   and mined outputs are identical in every case.  Instrumentation reads
   clocks and counters only; it must never touch the RNG stream or the
   result path. *)
let test_stats_do_not_change_results () =
  let universe = 60 in
  let rng = Rng.create ~seed:31 () in
  let db = Simple.fixed_size rng ~universe ~size:5 ~count:800 in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.6 ~p_add:0.02 in
  let run ~stats ~jobs =
    scoped (fun () ->
        Metrics.set_enabled stats;
        Pool.with_pool ~jobs (fun pool ->
            let rng = Rng.create ~seed:77 () in
            (* small chunks so multi-piece batches actually hit the pool's
               parallel path at jobs > 1 *)
            let tagged = Parallel.randomize_db_tagged pool ~chunk:128 scheme rng db in
            let mined =
              Parallel.apriori_mine pool ~chunk:128 db ~min_support:0.05 ~max_size:3
            in
            let itemset = Itemset.of_list [ 1; 2 ] in
            let stream = Stream.create ~scheme ~itemset in
            Stream.observe_all stream tagged;
            (tagged, mined, (Stream.estimate stream).Estimator.support)))
  in
  let base_tagged, base_mined, base_support = run ~stats:false ~jobs:1 in
  List.iter
    (fun (stats, jobs) ->
      let tagged, mined, support = run ~stats ~jobs in
      let label fmt =
        Printf.sprintf "%s (stats %b, jobs %d)" fmt stats jobs
      in
      Alcotest.(check int)
        (label "tagged length") (Array.length base_tagged) (Array.length tagged);
      Array.iteri
        (fun i (s, y) ->
          let s', y' = tagged.(i) in
          if s <> s' || not (Itemset.equal y y') then
            Alcotest.fail (label (Printf.sprintf "tagged[%d] differs" i)))
        base_tagged;
      Alcotest.(check string)
        (label "mined result")
        (String.concat ";"
           (List.map (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c) base_mined))
        (String.concat ";"
           (List.map (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c) mined));
      Alcotest.(check (float 0.)) (label "stream estimate") base_support support)
    [ (true, 1); (true, 2); (true, 4); (false, 4) ]

(* With stats on, the hot paths must actually show up in the report. *)
let test_instrumentation_coverage () =
  let universe = 60 in
  let rng = Rng.create ~seed:13 () in
  let db = Simple.fixed_size rng ~universe ~size:5 ~count:500 in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.6 ~p_add:0.02 in
  let mined = ref 0 in
  scoped (fun () ->
      Metrics.set_enabled true;
      Pool.with_pool ~jobs:2 (fun pool ->
          let rng = Rng.create ~seed:5 () in
          (* chunk small enough that batches span several tasks: the
             queue-wait histogram only exists on the parallel path *)
          let tagged = Parallel.randomize_db_tagged pool ~chunk:64 scheme rng db in
          ignore (Parallel.apriori_mine pool ~chunk:64 db ~min_support:0.05 ~max_size:2);
          let itemset = Itemset.of_list [ 1; 2 ] in
          let stream = Stream.create ~scheme ~itemset in
          Stream.observe_all stream tagged;
          ignore (Stream.estimate stream);
          mined :=
            List.length
              (Ppmining.mine ~scheme ~data:tagged ~min_support:0.05 ~max_size:2 ())
                .Ppmining.explored);
      let snap = Metrics.snapshot () in
      let counter name = List.mem_assoc name snap.Metrics.counters in
      (* every candidate a level estimates is kept or pruned by one rule *)
      let count name = List.assoc name snap.Metrics.counters in
      Alcotest.(check int) "candidates = explored + pruned"
        (count "ppmining.candidates")
        (!mined + count "ppmining.pruned.sigma_cap" + count "ppmining.pruned.support");
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " recorded") true (counter name))
        [
          "randomizer.apply";
          "vertical.candidates";
          "apriori.level1.frequent";
          "stream.observed";
          "estimator.solves";
          "ppmining.candidates";
          "ppmining.pruned.sigma_cap";
          "ppmining.pruned.support";
          "pool.tasks";
          "pool.batches";
        ];
      Alcotest.(check bool) "queue wait histogram" true
        (List.mem_assoc "pool.queue_wait_ns" snap.Metrics.histograms);
      let roots = List.map (fun s -> s.Span.name) (Span.tree ()) in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " span") true (List.mem name roots))
        [ "parallel.randomize"; "parallel.apriori"; "stream.estimate";
          "ppmining.level" ];
      (* no dark time inside a level: counting and estimation are its
         children *)
      let level =
        List.find (fun s -> s.Span.name = "ppmining.level") (Span.tree ())
      in
      Alcotest.(check (list string)) "level children"
        [ "ppmining.count"; "ppmining.estimate" ]
        (List.map (fun s -> s.Span.name) level.Span.children))

(* Span.with_ serves both layers off one flag word: with metrics and
   tracing both on, a span must land in the span tree and put a matched
   begin/end pair on the timeline. *)
let test_span_feeds_trace () =
  scoped (fun () ->
      Trace.reset ();
      Fun.protect
        ~finally:(fun () ->
          Trace.set_enabled false;
          Trace.reset ())
        (fun () ->
          Metrics.set_enabled true;
          Trace.set_enabled true;
          Span.with_ ~name:"both" (fun () -> ());
          let roots = List.map (fun s -> s.Span.name) (Span.tree ()) in
          Alcotest.(check bool) "span tree has it" true (List.mem "both" roots);
          let pairs =
            List.map
              (fun (e : Trace.event) -> (e.Trace.phase, e.Trace.name))
              (Trace.events ())
          in
          Alcotest.(check bool) "timeline has the begin/end pair" true
            (pairs = [ (Trace.Begin, "both"); (Trace.End, "both") ])))

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "sink merge order-independent" `Quick
      test_sink_merge_order_independent;
    Alcotest.test_case "span tree" `Quick test_span_tree;
    Alcotest.test_case "span survives exceptions" `Quick
      test_span_survives_exceptions;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "report json lines parse" `Quick
      test_report_json_lines_parse;
    Alcotest.test_case "format of string" `Quick test_format_of_string;
    Alcotest.test_case "stats do not change results" `Quick
      test_stats_do_not_change_results;
    Alcotest.test_case "instrumentation coverage" `Quick
      test_instrumentation_coverage;
    Alcotest.test_case "span feeds trace" `Quick test_span_feeds_trace;
  ]
