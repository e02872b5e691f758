(* Trace-layer tests: ring overflow semantics, begin/end pairing across
   exceptions, exporter well-formedness (Chrome JSON and folded stacks,
   including the wall-clock clamp), the disabled path staying empty, the
   determinism guarantee with tracing on at several job counts, and the
   Benchdata round-trip plus regression gate behind `ppdm bench-diff`. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_runtime
open Ppdm_obs

(* Every test restores the trace layer to its initial state: disabled,
   empty rings.  Metrics are scoped too because the overflow test counts
   drops through the metrics registry. *)
let scoped f =
  Metrics.reset ();
  Span.reset ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Metrics.reset ();
      Span.reset ();
      Trace.reset ())
    f

(* The recorded timeline, as the Chrome JSON objects [Trace.write_file]
   writes. *)
let written () =
  let path = Filename.temp_file "ppdm_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_file path;
      match Json.parse (In_channel.with_open_text path In_channel.input_all) with
      | Ok (Json.List objs) -> objs
      | Ok _ -> Alcotest.fail "chrome export is not a JSON array"
      | Error e -> Alcotest.fail ("chrome export does not parse: " ^ e))

let field key ev =
  match Json.member key ev with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail ("no string field " ^ key)

let test_disabled_leaves_no_state () =
  scoped (fun () ->
      Trace.begin_ ~name:"a" ~cat:"test";
      Trace.instant ~name:"b" ~cat:"test";
      Trace.end_ ~name:"a" ~cat:"test";
      Trace.with_ ~name:"c" ~cat:"test" (fun () -> ());
      Alcotest.(check int) "no events recorded, no drops" 0
        (List.length (written ()));
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "metrics untouched" 0
        (List.length snap.Metrics.counters))

(* A ring holds 65536 events. *)
let test_ring_overflow_drops_oldest () =
  scoped (fun () ->
      let capacity = 65536 in
      Trace.set_enabled true;
      Metrics.set_enabled true;
      for i = 0 to capacity + 5 do
        Trace.instant ~name:(Printf.sprintf "ev%d" i) ~cat:"test"
      done;
      Trace.set_enabled false;
      let snap = Metrics.snapshot () in
      Alcotest.(check (list (pair string int)))
        "drops surface as a metrics counter"
        [ ("trace.dropped", 6) ]
        snap.Metrics.counters;
      (* export of an overflowed ring is still a well-formed trace *)
      let objs = written () in
      Alcotest.(check int) "ring holds capacity, plus the drop counter event"
        (capacity + 1) (List.length objs);
      let names = List.map (field "name") objs in
      Alcotest.(check (list string))
        "newest window survives, oldest dropped first"
        [ "ev6"; "ev7" ]
        (List.filteri (fun i _ -> i < 2) names);
      Alcotest.(check string) "newest event last"
        (Printf.sprintf "ev%d" (capacity + 5))
        (List.nth names (capacity - 1));
      let counter = List.nth objs capacity in
      Alcotest.(check string) "drop counter event" "trace.dropped"
        (field "name" counter);
      Alcotest.(check bool) "dropped count matches" true
        (Option.bind (Json.member "args" counter) (Json.member "dropped")
        = Some (Json.Int 6)))

exception Boom

let test_pairing_survives_exceptions () =
  scoped (fun () ->
      Trace.set_enabled true;
      (try Trace.with_ ~name:"outer" ~cat:"test" (fun () -> raise Boom)
       with Boom -> ());
      Trace.set_enabled false;
      Alcotest.(check (list string))
        "begin/end pair emitted" [ "B"; "E" ]
        (List.map (field "ph") (written ())))

(* Synthetic events: a slice with an instant inside it, plus one
   dropped event. *)
let test_chrome_json_fields () =
  let ev phase name ts_ns seq =
    { Timeline.phase; name; cat = "span"; ts_ns; domain = 0; seq }
  in
  match
    Timeline.to_chrome_json ~dropped:1
      [
        ev Timeline.Begin "slice" 1_000 0;
        ev Timeline.Instant "mark" 1_500 1;
        ev Timeline.End "slice" 2_000 2;
      ]
  with
  | Json.List objs ->
      Alcotest.(check int) "three events plus counter" 4 (List.length objs);
      List.iter
        (fun ev ->
          let str key =
            match Json.member key ev with
            | Some (Json.String s) -> Some s
            | _ -> None
          in
          let num key =
            match Json.member key ev with
            | Some (Json.Int _ | Json.Float _) -> true
            | _ -> false
          in
          Alcotest.(check bool) "has name" true (str "name" <> None);
          let ph =
            match str "ph" with Some p -> p | None -> Alcotest.fail "ph"
          in
          Alcotest.(check bool) "known phase" true
            (List.mem ph [ "B"; "E"; "i"; "C" ]);
          if ph <> "C" then
            Alcotest.(check bool) "has cat" true (str "cat" <> None);
          Alcotest.(check bool) "numeric ts/pid/tid" true
            (num "ts" && num "pid" && num "tid"))
        objs
  | _ -> Alcotest.fail "chrome export is not a JSON array"

(* Synthetic events let us feed the exporter a backwards clock: the
   folded output must clamp the negative duration to 0, never emit a
   negative self time. *)
let test_folded_clamps_backwards_clock () =
  let ev phase name ts_ns seq =
    { Timeline.phase; name; cat = "test"; ts_ns; domain = 0; seq }
  in
  let folded =
    Timeline.to_folded
      [
        ev Timeline.Begin "stepped" 1_000 0;
        ev Timeline.End "stepped" 400 1;
        (* NTP step: ends before it began *)
        ev Timeline.Begin "fine" 2_000 2;
        ev Timeline.End "fine" 2_500 3;
      ]
  in
  Alcotest.(check bool) "clamped frame present" true
    (List.mem "stepped 0" (String.split_on_char '\n' folded));
  Alcotest.(check bool) "normal frame keeps duration" true
    (List.mem "fine 500" (String.split_on_char '\n' folded));
  Alcotest.(check bool) "no negative self time" true
    (not (String.exists (( = ) '-') folded))

(* The design's core guarantee: tracing on changes no computed result at
   any job count. *)
let test_trace_does_not_change_results () =
  let universe = 80 in
  let rng = Rng.create ~seed:21 () in
  let db = Simple.fixed_size rng ~universe ~size:5 ~count:600 in
  let mine jobs =
    Pool.with_pool ~jobs (fun pool ->
        Parallel.apriori_mine pool db ~min_support:0.04 ~max_size:3)
  in
  let plain = mine 1 in
  scoped (fun () ->
      Trace.set_enabled true;
      List.iter
        (fun jobs ->
          let traced = mine jobs in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d identical with tracing on" jobs)
            true
            (List.length plain = List.length traced
            && List.for_all2
                 (fun (s, c) (s', c') -> Itemset.equal s s' && c = c')
                 plain traced))
        [ 1; 2; 4 ];
      Alcotest.(check bool) "trace captured the mining run" true
        (written () <> []))

let m section name jobs ns =
  {
    Benchdata.section;
    name;
    jobs;
    ns_per_op = ns;
    throughput = (if ns > 0. then 1e9 /. ns else 0.);
  }

let test_benchdata_roundtrip () =
  let ms = [ m "b1" "randomize m=5" 1 812.5; m "b4" "count" 4 123456.0 ] in
  let path = Filename.temp_file "ppdm_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Benchdata.write_file path ms;
      match Benchdata.read_file path with
      | Error e -> Alcotest.fail ("read_file: " ^ e)
      | Ok back ->
          Alcotest.(check int) "same count" (List.length ms) (List.length back);
          List.iter2
            (fun a b ->
              Alcotest.(check string) "key survives" (Benchdata.key a)
                (Benchdata.key b);
              Alcotest.(check (float 1e-9)) "ns survives" a.Benchdata.ns_per_op
                b.Benchdata.ns_per_op)
            ms back)

let test_benchdiff_gate () =
  let baseline = [ m "b1" "fast" 1 100.; m "b6" "selftest" 1 1_000_000. ] in
  (* identical inputs: nothing regresses *)
  let d = Benchdata.diff ~tolerance:0.5 ~baseline ~current:baseline in
  Alcotest.(check int) "identical -> no regressions" 0
    (List.length d.Benchdata.regressions);
  Alcotest.(check int) "both compared" 2 d.Benchdata.compared;
  (* a 10x slowdown on one entry must trip the gate *)
  let current = [ m "b1" "fast" 1 1_000.; m "b6" "selftest" 1 1_000_000. ] in
  let d = Benchdata.diff ~tolerance:0.5 ~baseline ~current in
  (match d.Benchdata.regressions with
  | [ r ] ->
      Alcotest.(check string) "the slowed entry" "b1/fast/j1"
        (Benchdata.key r.Benchdata.baseline);
      Alcotest.(check (float 1e-6)) "ratio is 10x" 10. r.Benchdata.ratio
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 regression, got %d" (List.length rs)));
  (* within tolerance passes; renames report as missing/added, not failures *)
  let d =
    Benchdata.diff ~tolerance:0.5 ~baseline
      ~current:[ m "b1" "fast" 1 140.; m "b6" "renamed" 1 1_000_000. ]
  in
  Alcotest.(check int) "40% slower within 50% tolerance" 0
    (List.length d.Benchdata.regressions);
  Alcotest.(check int) "one missing" 1 (List.length d.Benchdata.missing);
  Alcotest.(check int) "one added" 1 (List.length d.Benchdata.added)

let suite =
  [
    Alcotest.test_case "disabled leaves no state" `Quick
      test_disabled_leaves_no_state;
    Alcotest.test_case "ring overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "pairing survives exceptions" `Quick
      test_pairing_survives_exceptions;
    Alcotest.test_case "chrome json fields" `Quick test_chrome_json_fields;
    Alcotest.test_case "folded clamps backwards clock" `Quick
      test_folded_clamps_backwards_clock;
    Alcotest.test_case "tracing does not change results" `Quick
      test_trace_does_not_change_results;
    Alcotest.test_case "benchdata round-trip" `Quick test_benchdata_roundtrip;
    Alcotest.test_case "bench-diff gate" `Quick test_benchdiff_gate;
  ]
