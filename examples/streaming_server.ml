(* Streaming collection: the deployment shape of the randomization
   protocol, on a real socket.

   Clients randomize locally and report one transaction at a time; the
   server never stores the stream — it folds each report into O(k) sized
   accumulators (one per tracked itemset) and can publish support
   estimates with error bars at any moment.  This example starts the
   actual ingest service ([Ppdm_server.Serve]) on a loopback TCP port,
   streams 30k randomized reports over three concurrent client
   connections speaking the length-prefixed binary protocol, pulls a live
   snapshot over the wire, and then verifies the headline guarantee
   in-process: the sharded, concurrently-ingested statistic is
   bit-identical to a single sequential fold of the same reports.

   The run is instrumented with ppdm_obs: ingest counters, queue-depth
   gauges, and batch-size histograms land in the metrics report on
   stderr; the session/fold timeline goes to a trace file — so the
   example doubles as a demo of the observability layer.

   Run with:  dune exec examples/streaming_server.exe *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
open Ppdm_runtime
open Ppdm_server

let () =
  Ppdm_obs.Metrics.set_enabled true;
  Ppdm_obs.Trace.set_enabled true;
  let universe = 300 and size = 6 and count = 30_000 in
  let rng = Rng.create ~seed:123 () in

  (* ground truth: two itemsets planted at different supports *)
  let hot = Itemset.of_list [ 10; 20 ] in
  let db = Simple.planted rng ~universe ~size ~count ~itemset:hot ~support:0.12 in
  let cold = Itemset.of_list [ 30; 40 ] in
  Printf.printf "true supports: %s %.4f | %s %.4f\n" (Itemset.to_string hot)
    (Db.support db hot) (Itemset.to_string cold) (Db.support db cold);

  let design = Optimizer.design_for_estimation ~m:size ~gamma:19. () in
  let scheme =
    Randomizer.select_a_size ~universe ~size ~keep_dist:design.Optimizer.dist
      ~rho:design.Optimizer.rho
  in
  (* what the clients send: randomized transactions, tagged with their
     (public) original size — drawn as [ppdm load] draws them *)
  let stream =
    Pool.with_pool ~jobs:1 (fun pool -> Parallel.randomize pool scheme rng db)
  in
  let report_of items off len =
    Itemset.of_sorted_array_unchecked (Array.sub items off len)
  in

  (* the server: 2 session workers, 2 ingest shards, batched folds *)
  let server =
    Serve.start
      {
        (Serve.default_config ~scheme ~itemsets:[ hot; cold ]) with
        jobs = 2;
        shards = 2;
        batch = 128;
      }
  in
  let port = Serve.port server in
  Printf.printf "ingest server listening on 127.0.0.1:%d\n" port;

  (* three concurrent clients, each streaming a contiguous slice of the
     reports over its own connection *)
  let clients = 3 in
  let drive i () =
    let lo = i * count / clients and hi = (i + 1) * count / clients in
    let c = Client.connect ~port () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        ignore (Client.handshake c ~scheme ~sizes:[ size ] ());
        Reports.iter_rows ~lo ~hi stream (fun sz items off len ->
            Client.report c ~size:sz (report_of items off len));
        (* snapshot round-trip = sync barrier: the reply proves every
           report above reached the shard queues *)
        ignore (Client.snapshot c ~flush:false))
  in
  Array.init clients (fun i -> Domain.spawn (drive i))
  |> Array.iter Domain.join;

  (* a live estimate over the wire, exactly as an external client sees it *)
  let ctl = Client.connect ~port () in
  ignore (Client.handshake ctl ~sizes:[] ());
  Printf.printf "wire snapshot: %s\n" (Client.snapshot ctl ~flush:true);

  (* the headline check, in-process: sharded concurrent ingest equals one
     sequential fold of the same reports, bit for bit *)
  let served =
    match Serve.snapshot_estimates server ~flush:true with
    | (_, Some e) :: _ -> e
    | _ -> failwith "no estimate for the hot itemset"
  in
  let seq = Stream.create ~scheme ~itemset:hot in
  Reports.iter_rows stream (fun sz items off len ->
      Stream.observe seq ~size:sz (report_of items off len));
  let whole = Stream.estimate seq in
  Printf.printf "shard merge check: %.6f = %.6f -> %b (%d reports)\n"
    served.Estimator.support whole.Estimator.support
    (served.Estimator.support = whole.Estimator.support)
    served.Estimator.n_transactions;

  (* a client-initiated shutdown stops the accept loop and drains *)
  Client.shutdown ctl;
  Client.close ctl;
  let stats = Serve.wait server in
  Printf.printf "server stopped: %d sessions, %d reports folded\n"
    stats.Serve.sessions stats.Serve.reports;

  (* timeline to a file, metrics report to stderr — stdout stays clean *)
  let trace_path =
    Filename.concat (Filename.get_temp_dir_name ()) "ppdm-ingest-trace.json"
  in
  Ppdm_obs.Trace.write_file trace_path;
  Printf.eprintf "trace written: %s\n" trace_path;
  prerr_string (Ppdm_obs.Report.to_string Ppdm_obs.Report.Human)
