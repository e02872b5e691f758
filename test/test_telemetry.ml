(* Telemetry-layer tests: the EWMA meter's closed-form decay, window
   histogram rotation determinism at jobs 1/2/4 under an injected clock,
   OpenMetrics escaping and structural validation, and the admin plane's
   healthz/readyz contract — unit-level on the pure request handler and
   end to end against a live server. *)

open Ppdm_data
open Ppdm
open Ppdm_obs
open Ppdm_server

(* Every test leaves the global registries disabled and empty, like the
   obs suite does: later suites run with metrics off. *)
let scoped f =
  Metrics.reset ();
  Window.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Window.reset ())
    f

let meter_at name now =
  match List.assoc_opt name (Window.snapshot ~now ()).Window.meters with
  | Some m -> m
  | None -> Alcotest.fail (Printf.sprintf "meter %s missing" name)

(* ------------------------------------------------------------ EWMA meter *)

(* The meter is pure arithmetic once the clock is injected: one weighted
   update per completed tick, closed-form decay over empty ticks.  Every
   expectation below is the textbook formula, not a golden value. *)
let test_ewma_closed_form () =
  scoped (fun () ->
      Metrics.set_enabled true;
      Window.define_meter ~tick_ns:1000 ~tau_ns:2000 "m";
      let alpha = 1. -. exp (-0.5) in
      Window.mark ~now:0 "m" 10;
      Alcotest.(check int) "total is immediate" 10 (meter_at "m" 0).Window.total;
      Alcotest.(check (float 0.))
        "rate 0 before the first tick completes" 0.
        (meter_at "m" 0).Window.rate;
      let per_sec = 10. *. 1e9 /. 1000. in
      Alcotest.(check (float 1e-3))
        "one completed tick" (alpha *. per_sec)
        (meter_at "m" 1000).Window.rate;
      Alcotest.(check (float 1e-3))
        "snapshot is read-only (same answer twice)" (alpha *. per_sec)
        (meter_at "m" 1000).Window.rate;
      for k = 1 to 5 do
        Alcotest.(check (float 1e-3))
          (Printf.sprintf "closed-form decay over %d empty ticks" k)
          (alpha *. per_sec *. ((1. -. alpha) ** float_of_int k))
          (meter_at "m" (1000 * (k + 1))).Window.rate
      done;
      (* a second burst folds in with the standard EWMA update *)
      Window.mark ~now:1500 "m" 20;
      let r1 = alpha *. per_sec in
      let r2 = r1 +. (alpha *. ((20. *. 1e9 /. 1000.) -. r1)) in
      Alcotest.(check (float 1e-3))
        "ewma update on the next burst" r2
        (meter_at "m" 2000).Window.rate;
      Alcotest.(check int) "total sums bursts" 30 (meter_at "m" 2000).Window.total)

(* ------------------------------------------- window rotation determinism *)

(* A fixed observation stream (strictly increasing injected clock,
   spanning 8 epochs against a 4-slot ring) partitioned round-robin
   across 1, 2, and 4 domains.  Window histograms sum integer slots, so
   snapshots must be bit-identical; meter totals are exact and rates
   agree up to floating-point summation order. *)
let obs = Array.init 240 (fun i -> (i * 3, ((i * 13) + 5) mod 997))
let snap_now = 717 (* epoch 7; live window = epochs 4..7 *)

let run_partitioned jobs =
  Window.reset ();
  Metrics.set_enabled true;
  Window.define_histogram ~epochs:4 ~epoch_ns:100 "w";
  Window.define_meter ~tick_ns:50 ~tau_ns:100 "r";
  let doms =
    List.init jobs (fun d ->
        Domain.spawn (fun () ->
            Array.iteri
              (fun i (now, v) ->
                if i mod jobs = d then begin
                  Window.observe ~now "w" v;
                  Window.mark ~now "r" ((i mod 5) + 1)
                end)
              obs))
  in
  List.iter Domain.join doms;
  Window.snapshot ~now:snap_now ()

let hist_of name snap =
  match List.assoc_opt name snap.Window.histograms with
  | Some h -> h
  | None -> Alcotest.fail (Printf.sprintf "window histogram %s missing" name)

let check_hist msg (a : Metrics.histogram) (b : Metrics.histogram) =
  Alcotest.(check int) (msg ^ ": count") a.Metrics.count b.Metrics.count;
  Alcotest.(check int) (msg ^ ": sum") a.Metrics.sum b.Metrics.sum;
  Alcotest.(check int) (msg ^ ": min") a.Metrics.min b.Metrics.min;
  Alcotest.(check int) (msg ^ ": max") a.Metrics.max b.Metrics.max;
  Alcotest.(check (list (pair int int)))
    (msg ^ ": buckets") a.Metrics.buckets b.Metrics.buckets

let test_window_rotation_determinism () =
  scoped (fun () ->
      let reference = run_partitioned 1 in
      (* the single-domain snapshot matches a direct computation over
         the observations whose epoch is still inside the window *)
      let live =
        Array.to_list obs |> List.filter (fun (now, _) -> now / 100 > 3)
      in
      let h = hist_of "w" reference in
      Alcotest.(check int) "live-window count" (List.length live) h.Metrics.count;
      Alcotest.(check int)
        "live-window sum"
        (List.fold_left (fun a (_, v) -> a + v) 0 live)
        h.Metrics.sum;
      let ref_meter = List.assoc "r" reference.Window.meters in
      List.iter
        (fun jobs ->
          let s = run_partitioned jobs in
          check_hist
            (Printf.sprintf "jobs %d bit-identical" jobs)
            (hist_of "w" reference) (hist_of "w" s);
          let m = List.assoc "r" s.Window.meters in
          Alcotest.(check int)
            (Printf.sprintf "jobs %d meter total exact" jobs)
            ref_meter.Window.total m.Window.total;
          (* rates are float sums: equal up to summation order *)
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d meter rate agrees" jobs)
            true
            (Float.abs (ref_meter.Window.rate -. m.Window.rate)
            <= (1e-9 *. Float.abs ref_meter.Window.rate) +. 1e-9))
        [ 2; 4 ];
      (* once [now] moves a full ring past the data, everything rotates
         out of the window *)
      match
        List.assoc_opt "w" (Window.snapshot ~now:1200 ()).Window.histograms
      with
      | Some h -> Alcotest.(check int) "window rotated out" 0 h.Metrics.count
      | None -> ())

(* --------------------------------------------------- OpenMetrics format *)

let test_exposition_escaping () =
  let raw = "a\\b\"c\nd" in
  (* the label value [raw], escaped as [render] escapes it *)
  let doc = "# TYPE ppdm_x gauge\nppdm_x{k=\"a\\\\b\\\"c\\nd\"} 1\n# EOF\n" in
  (match Exposition.validate doc with
  | Error e -> Alcotest.fail ("escaped label rejected: " ^ e)
  | Ok [ s ] ->
      Alcotest.(check string) "sample name" "ppdm_x" s.Exposition.name;
      Alcotest.(check (list (pair string string)))
        "label round-trips through escape + parse"
        [ ("k", raw) ]
        s.Exposition.labels;
      Alcotest.(check (float 0.)) "value" 1.0 s.Exposition.value
  | Ok l ->
      Alcotest.fail (Printf.sprintf "expected one sample, got %d" (List.length l)));
  scoped (fun () ->
      Metrics.set_enabled true;
      Metrics.gauge "server.fold.latency_ns" 1.;
      let body = Exposition.render ~now:0 () in
      Alcotest.(check bool) "dotted names sanitize" true
        (List.exists
           (fun s -> s.Exposition.name = "ppdm_server_fold_latency_ns")
           (Result.get_ok (Exposition.validate body))))

let test_render_validates () =
  scoped (fun () ->
      Metrics.set_enabled true;
      Metrics.incr "c";
      Metrics.add "c" 4;
      Metrics.gauge "q.depth.s3" 7.;
      Metrics.observe "lat" 100;
      Metrics.observe "lat" 5000;
      Window.define_meter "ing";
      Window.mark ~now:0 "ing" 50;
      Window.define_histogram "wl";
      Window.observe ~now:0 "wl" 42;
      let body = Exposition.render ~now:2_000_000_000 () in
      let samples =
        match Exposition.validate body with
        | Ok s -> s
        | Error e -> Alcotest.fail ("rendered registry invalid: " ^ e)
      in
      let value ?labels name =
        match
          List.find_opt
            (fun s ->
              s.Exposition.name = name
              &&
              match labels with
              | None -> true
              | Some l -> s.Exposition.labels = l)
            samples
        with
        | Some s -> s.Exposition.value
        | None -> Alcotest.fail (Printf.sprintf "sample %s missing" name)
      in
      Alcotest.(check (float 0.)) "counter total" 5. (value "ppdm_c_total");
      Alcotest.(check (float 0.))
        "trailing .s3 becomes a shard label" 7.
        (value ~labels:[ ("shard", "3") ] "ppdm_q_depth");
      Alcotest.(check (float 0.))
        "histogram count" 2. (value "ppdm_lat_count");
      Alcotest.(check (float 0.))
        "+Inf bucket equals count" 2.
        (value ~labels:[ ("le", "+Inf") ] "ppdm_lat_bucket");
      Alcotest.(check (float 0.)) "histogram max" 5000. (value "ppdm_lat_max");
      Alcotest.(check (float 0.)) "meter total" 50. (value "ppdm_ing_total");
      Alcotest.(check (float 0.))
        "window histogram count" 1. (value "ppdm_wl_count");
      Alcotest.(check bool) "gc gauges present" true
        (List.exists (fun s -> s.Exposition.name = "ppdm_gc_heap_words") samples))

let test_validate_rejects () =
  let rejected msg doc =
    match Exposition.validate doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (msg ^ ": accepted")
  in
  rejected "missing # EOF" "# TYPE ppdm_x gauge\nppdm_x 1\n";
  rejected "duplicate TYPE"
    "# TYPE ppdm_x gauge\n# TYPE ppdm_x counter\nppdm_x 1\n# EOF\n";
  rejected "unknown type" "# TYPE ppdm_x summary\nppdm_x 1\n# EOF\n";
  rejected "undeclared family" "ppdm_y 1\n# EOF\n";
  rejected "counter sample without _total"
    "# TYPE ppdm_x counter\nppdm_x 1\n# EOF\n";
  rejected "negative counter"
    "# TYPE ppdm_x counter\nppdm_x_total -1\n# EOF\n";
  rejected "non-cumulative buckets"
    ("# TYPE ppdm_x histogram\n"
   ^ "ppdm_x_bucket{le=\"1\"} 5\nppdm_x_bucket{le=\"2\"} 3\n"
   ^ "ppdm_x_bucket{le=\"+Inf\"} 5\nppdm_x_count 5\nppdm_x_sum 10\n# EOF\n");
  rejected "missing +Inf bucket"
    ("# TYPE ppdm_x histogram\n"
   ^ "ppdm_x_bucket{le=\"1\"} 5\nppdm_x_count 5\nppdm_x_sum 10\n# EOF\n");
  rejected "count disagrees with +Inf"
    ("# TYPE ppdm_x histogram\n"
   ^ "ppdm_x_bucket{le=\"+Inf\"} 5\nppdm_x_count 6\nppdm_x_sum 10\n# EOF\n")

(* --------------------------------------------------------- admin plane *)

(* healthz and readyz answer different questions: an admin loop with a
   fake readiness probe must report the process alive (200 healthz)
   while not ready (503 readyz). *)
let test_healthz_readyz_ordering () =
  let ready_flag = ref false in
  let handlers =
    {
      Admin.metrics = (fun () -> "# EOF\n");
      healthy = (fun () -> true);
      ready =
        (fun () -> (!ready_flag, if !ready_flag then "ok" else "draining"));
    }
  in
  let with_admin handlers f =
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen listener 8;
    let port =
      match Unix.getsockname listener with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> Alcotest.fail "no port"
    in
    let stop = Atomic.make false in
    let loop = Domain.spawn (fun () -> Admin.serve_loop listener ~stop handlers) in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join loop)
      (fun () -> f port)
  in
  (* status code and body of the response to one raw request *)
  let ask port request =
    let response = Ppdm_check.Fault.admin_raw ~port request in
    match String.split_on_char ' ' response with
    | _ :: code :: _ ->
        let n = String.length response in
        let rec body i =
          if i + 4 > n then ""
          else if String.sub response i 4 = "\r\n\r\n" then
            String.sub response (i + 4) (n - i - 4)
          else body (i + 1)
        in
        let body = body 0 in
        (int_of_string code, body)
    | _ -> Alcotest.fail ("no status line: " ^ response)
  in
  with_admin handlers (fun port ->
      let status request = fst (ask port request) in
      Alcotest.(check int) "healthz up" 200
        (status "GET /healthz HTTP/1.0\r\n\r\n");
      Alcotest.(check int)
        "readyz 503 while not ready" 503
        (status "GET /readyz HTTP/1.0\r\n\r\n");
      Alcotest.(check string)
        "readyz explains itself" "draining\n"
        (snd (ask port "GET /readyz HTTP/1.0\r\n\r\n"));
      ready_flag := true;
      Alcotest.(check int)
        "readyz follows the probe" 200
        (status "GET /readyz HTTP/1.0\r\n\r\n");
      Alcotest.(check int) "unknown path" 404
        (status "GET /nope HTTP/1.0\r\n\r\n");
      Alcotest.(check int)
        "non-GET method" 405
        (status "POST /metrics HTTP/1.0\r\n\r\n");
      Alcotest.(check int) "malformed request line" 400
        (status "garbage\r\n\r\n"));
  let broken = { handlers with Admin.metrics = (fun () -> failwith "boom") } in
  with_admin broken (fun port ->
      Alcotest.(check int) "render exception answers 500" 500
        (fst (ask port "GET /metrics HTTP/1.0\r\n\r\n")))

(* End to end: a live server with the admin plane answers healthz, then
   readyz, then serves a structurally valid OpenMetrics document. *)
let test_admin_live_scrape () =
  scoped (fun () ->
      let scheme = Randomizer.uniform ~universe:16 ~p_keep:0.7 ~p_add:0.05 in
      let server =
        Serve.start
          {
            (Serve.default_config ~scheme
               ~itemsets:[ Itemset.of_list [ 0; 1 ] ])
            with
            jobs = 2;
            shards = 2;
            admin_port = Some 0;
            sampler_period_ns = 1_000_000;
          }
      in
      Fun.protect
        ~finally:(fun () -> ignore (Serve.stop server))
        (fun () ->
          let port =
            match Serve.admin_port server with
            | Some p -> p
            | None -> Alcotest.fail "admin plane configured but no port bound"
          in
          let rec poll path n =
            match Admin.fetch ~port path with
            | Ok (200, body) -> body
            | _ when n > 0 ->
                Unix.sleepf 0.01;
                poll path (n - 1)
            | Ok (status, _) ->
                Alcotest.fail (Printf.sprintf "%s answered %d" path status)
            | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" path e)
          in
          (* liveness first, then readiness: a fresh server with empty
             queues must reach ready *)
          ignore (poll "/healthz" 200);
          ignore (poll "/readyz" 200);
          let body = poll "/metrics" 200 in
          match Exposition.validate body with
          | Error e -> Alcotest.fail ("live scrape invalid: " ^ e)
          | Ok samples ->
              Alcotest.(check bool) "scrape has samples" true (samples <> []);
              Alcotest.(check bool) "gc gauges present" true
                (List.exists
                   (fun s -> s.Exposition.name = "ppdm_gc_heap_words")
                   samples)))

let suite =
  [
    Alcotest.test_case "ewma closed form" `Quick test_ewma_closed_form;
    Alcotest.test_case "window rotation deterministic at jobs 1/2/4" `Quick
      test_window_rotation_determinism;
    Alcotest.test_case "openmetrics escaping" `Quick test_exposition_escaping;
    Alcotest.test_case "rendered registry validates" `Quick test_render_validates;
    Alcotest.test_case "validator rejects malformed documents" `Quick
      test_validate_rejects;
    Alcotest.test_case "healthz/readyz ordering" `Quick
      test_healthz_readyz_ordering;
    Alcotest.test_case "live admin scrape" `Quick test_admin_live_scrape;
  ]
