(* Benchmark & experiment harness.

   Running `dune exec bench/main.exe` regenerates every table and figure of
   the reconstructed evaluation (T1-T3, F1-F5; see DESIGN.md §3 and
   EXPERIMENTS.md) and then runs the Bechamel micro-benchmarks (B1-B3).
   Pass `--tables-only` to skip the micro-benchmarks. *)

open Ppdm
open Ppdm_prng
open Ppdm_data
open Ppdm_mining
open Ppdm_runtime
module Count = Ppdm_check.Count
module Draw = Ppdm_check.Draw
module Experiment = Ppdm_check.Experiment
module Eclat = Ppdm_check.Eclat
module Fptree = Ppdm_check.Fptree

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------- machine-readable measurements *)

(* Every timed section also records Benchdata measurements; at exit they
   are written as BENCH_<section>.json next to the human tables (or as
   one aggregate file with --json FILE).  This is the bench history the
   regression gate (`ppdm bench-diff`) runs on. *)
let measurements : Ppdm_obs.Benchdata.measurement list ref = ref []

let emit ~section ~name ?(jobs = 1) ~ns_per_op ~throughput () =
  measurements :=
    { Ppdm_obs.Benchdata.section; name; jobs; ns_per_op; throughput }
    :: !measurements

let write_measurements ~json_dir ~json_out =
  let ms = List.rev !measurements in
  if ms <> [] then begin
    match json_out with
    | Some path ->
        Ppdm_obs.Benchdata.write_file path ms;
        Printf.eprintf "bench: wrote %d measurement(s) to %s\n"
          (List.length ms) path
    | None ->
        let sections =
          List.sort_uniq compare
            (List.map (fun m -> m.Ppdm_obs.Benchdata.section) ms)
        in
        List.iter
          (fun section ->
            let path =
              Filename.concat json_dir
                (Printf.sprintf "BENCH_%s.json" section)
            in
            Ppdm_obs.Benchdata.write_file path
              (List.filter
                 (fun m -> m.Ppdm_obs.Benchdata.section = section)
                 ms);
            Printf.eprintf "bench: wrote %s\n" path)
          sections
  end

let fopt = function None -> "   --  " | Some v -> Printf.sprintf "%7.3f" v

(* Proportional ASCII bar for figure-style series. *)
let bar ?(width = 32) value max_value =
  if max_value <= 0. then ""
  else begin
    let n =
      max 0 (min width (int_of_float (Float.round (value /. max_value *. float_of_int width))))
    in
    String.make n '#'
  end

let t1 () =
  header "T1  Breach-prevention thresholds: max gamma for (rho1 -> rho2)";
  Printf.printf "%-8s %-8s %-10s\n" "rho1" "rho2" "max gamma";
  List.iter
    (fun (r : Experiment.t1_row) ->
      Printf.printf "%-8.2f %-8.2f %-10.2f\n" r.rho1 r.rho2 r.gamma_limit)
    (Experiment.t1_breach_limits ())

let t2 () =
  header "T2  Cut-and-paste privacy profile (prior 5%, universe 1000)";
  Printf.printf "%-4s %-6s %-4s %-10s %-12s %-10s\n" "K" "rho" "m" "kept" "posterior" "gamma";
  List.iter
    (fun (r : Experiment.t2_row) ->
      Printf.printf "%-4d %-6.2f %-4d %-10.3f %-12.3f %s\n" r.cutoff r.rho r.size
        r.kept_fraction r.worst_posterior
        (if r.gamma = infinity then "inf" else Printf.sprintf "%.2f" r.gamma))
    (Experiment.t2_cut_and_paste ())

let t3 () =
  header "T3  Optimized select-a-size vs cut-and-paste (prior 5%, N=100k)";
  Printf.printf "%-4s %-7s %-8s %-9s %-10s %-9s %-9s %-9s %-9s\n" "m" "gamma"
    "sas_rho" "sas_kept" "posterior" "cp_kept" "sig(k1)" "sig(k2)" "sig(k3)";
  List.iter
    (fun (r : Experiment.t3_row) ->
      Printf.printf "%-4d %-7.1f %-8.4f %-9.3f %-10.3f %s %-9.5f %-9.5f %-9.5f\n"
        r.size r.gamma_budget r.sas_rho r.sas_kept r.sas_posterior
        (fopt r.cp_kept) r.sigma_k1 r.sigma_k2 r.sigma_k3)
    (Experiment.t3_operator_comparison ())

let f1 () =
  header "F1  Predicted sigma of the support estimator vs true support (m=5, gamma=19, N=100k)";
  Printf.printf "%-4s %-10s %-10s\n" "k" "support" "sigma";
  List.iter
    (fun (p : Experiment.f1_point) ->
      Printf.printf "%-4d %-10.4f %-10.6f\n" p.k p.support p.sigma)
    (Experiment.f1_sigma_vs_support ())

let f2 () =
  header "F2  Lowest discoverable support vs privacy level (N=100k)";
  let points = Experiment.f2_discoverable_vs_gamma () in
  let top =
    List.fold_left (fun m (p : Experiment.f2_point) -> Float.max m p.discoverable) 0. points
  in
  Printf.printf "%-4s %-4s %-8s %-14s\n" "m" "k" "gamma" "discoverable";
  List.iter
    (fun (p : Experiment.f2_point) ->
      Printf.printf "%-4d %-4d %-8.1f %-14.5f %s\n" p.size p.k p.gamma
        p.discoverable (bar p.discoverable top))
    points

let f3 () =
  header "F3  Predicted vs empirical sigma (Monte Carlo, planted supports)";
  Printf.printf "%-4s %-9s %-11s %-11s %-11s %-7s\n" "k" "support" "predicted"
    "empirical" "mean_est" "trials";
  List.iter
    (fun (r : Experiment.f3_row) ->
      Printf.printf "%-4d %-9.3f %-11.5f %-11.5f %-11.5f %-7d\n" r.k r.support
        r.predicted_sigma r.empirical_sigma r.mean_estimate r.trials)
    (Experiment.f3_sigma_validation ())

let f4 () =
  header "F4  Privacy-preserving Apriori accuracy (Quest 100k, max itemset size 3)";
  Printf.printf "%-7s %-9s %-9s %-6s %-6s %-6s\n" "gamma" "minsup" "frequent" "TP" "FP" "drops";
  List.iter
    (fun (r : Experiment.f4_row) ->
      Printf.printf "%-7.0f %-9.3f %-9d %-6d %-6d %-6d\n" r.gamma_budget
        r.min_support r.true_frequent r.true_positives r.false_positives
        r.false_drops)
    (Experiment.f4_mining_accuracy ())

let f5 () =
  header "F5  Posteriors never exceed the amplification ceiling (m=5, gamma=19)";
  Printf.printf "%-9s %-11s %-11s %-9s %s\n" "prior" "analytic" "empirical" "ceiling" "ok";
  List.iter
    (fun (p : Experiment.f5_point) ->
      Printf.printf "%-9.4f %-11.4f %-11.4f %-9.4f %s\n" p.prior
        p.analytic_posterior p.empirical_posterior p.bound
        (if p.empirical_posterior <= p.bound +. 0.05 then "yes" else "VIOLATION"))
    (Experiment.f5_bound_validation ())

let a1 () =
  header "A1  Ablation: optimized select-a-size vs randomized response at matched gamma";
  Printf.printf "%-4s %-7s %-8s %-10s %-10s %-9s %-9s\n" "m" "gamma" "rr_eps"
    "sas_sigma" "rr_sigma" "sas_kept" "rr_kept";
  List.iter
    (fun (r : Experiment.a1_row) ->
      Printf.printf "%-4d %-7.0f %-8.3f %-10.5f %-10.5f %-9.3f %-9.3f\n" r.size
        r.gamma r.rr_epsilon r.sas_sigma_k2 r.rr_sigma_k2 r.sas_kept r.rr_kept)
    (Experiment.a1_rr_comparison ())

let a2 () =
  header "A2  Ablation: sigma-slack exploration knob (Quest 100k, gamma=49, minsup 5%)";
  Printf.printf "%-7s %-6s %-6s %-7s %-9s\n" "slack" "TP" "FP" "drops" "explored";
  List.iter
    (fun (r : Experiment.a2_row) ->
      Printf.printf "%-7.1f %-6d %-6d %-7d %-9d\n" r.sigma_slack
        r.true_positives r.false_positives r.false_drops r.explored)
    (Experiment.a2_slack_ablation ())

let a4 () =
  header "A4  Ablation: inversion vs EM support recovery (planted 10%, m=5)";
  Printf.printf "%-8s %-10s %-10s %-12s %-7s\n" "N" "inv_rmse" "em_rmse"
    "inv_infeas" "trials";
  List.iter
    (fun (r : Experiment.a4_row) ->
      Printf.printf "%-8d %-10.5f %-10.5f %-12d %-7d\n" r.count r.inv_rmse
        r.em_rmse r.inv_infeasible r.trials)
    (Experiment.a4_inversion_vs_em ())

let e1 () =
  header "E1  Extension: generic channel privacy/accuracy frontier (numeric, 16 bins, N=30k)";
  Printf.printf "%-7s %-9s %-9s %-12s %-10s\n" "alpha" "gamma" "epsilon" "post@5%" "rmse";
  let rows = Experiment.e1_channel_tradeoff () in
  let top =
    List.fold_left (fun m (r : Experiment.e1_row) -> Float.max m r.reconstruction_rmse) 0. rows
  in
  List.iter
    (fun (r : Experiment.e1_row) ->
      Printf.printf "%-7.2f %-9.2f %-9.3f %-12.3f %-10.5f %s\n" r.alpha r.gamma
        r.epsilon r.posterior_bound r.reconstruction_rmse
        (bar r.reconstruction_rmse top))
    rows

(* ------------------------------------------------- Bechamel micro-benches *)

let run_benchmarks ~section tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with Some [ est ] -> est | _ -> Float.nan
      in
      if Float.is_finite ns && ns > 0. then
        emit ~section ~name ~ns_per_op:ns ~throughput:(1e9 /. ns) ();
      if ns > 1e6 then Printf.printf "  %-44s %10.3f ms/run\n" name (ns /. 1e6)
      else if ns > 1e3 then Printf.printf "  %-44s %10.3f us/run\n" name (ns /. 1e3)
      else Printf.printf "  %-44s %10.1f ns/run\n" name ns)
    (List.sort compare rows)

let b1 () =
  header "B1  Randomization throughput (universe 10k)";
  let universe = 10_000 in
  let mk_tx size =
    let rng = Rng.create ~seed:1 () in
    Itemset.of_sorted_array_unchecked (Dist.sample_distinct rng ~k:size ~bound:universe)
  in
  let bench_op name scheme size =
    let tx = mk_tx size in
    let rng = Rng.create ~seed:2 () in
    Bechamel.Test.make
      ~name:(Printf.sprintf "%s m=%d" name size)
      (Bechamel.Staged.stage (fun () -> ignore (Randomizer.apply scheme rng tx)))
  in
  let tests =
    List.concat_map
      (fun size ->
        let d = Optimizer.design ~m:size ~gamma:19. Optimizer.Max_kept in
        [
          bench_op "uniform" (Randomizer.uniform ~universe ~p_keep:0.5 ~p_add:0.001) size;
          bench_op "cut-and-paste" (Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.001) size;
          bench_op "optimized-sas"
            (Randomizer.select_a_size ~universe ~size ~keep_dist:d.Optimizer.dist
               ~rho:d.Optimizer.rho)
            size;
        ])
      [ 5; 10 ]
  in
  run_benchmarks ~section:"b1" (Bechamel.Test.make_grouped ~name:"randomize" tests)

let b2 () =
  header "B2  Miner runtime: Apriori vs FP-growth vs Eclat (Quest, 5k transactions)";
  let db = Experiment.quest_db ~count:5_000 () in
  let tests =
    List.concat_map
      (fun min_support ->
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "apriori minsup=%.3f" min_support)
            (Bechamel.Staged.stage (fun () -> ignore (Apriori.mine db ~min_support ~max_size:3)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "fp-growth minsup=%.3f" min_support)
            (Bechamel.Staged.stage (fun () -> ignore (Fptree.mine db ~min_support ~max_size:3)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "eclat minsup=%.3f" min_support)
            (Bechamel.Staged.stage (fun () -> ignore (Eclat.mine db ~min_support ~max_size:3)));
        ])
      [ 0.05; 0.02; 0.01 ]
  in
  run_benchmarks ~section:"b2" (Bechamel.Test.make_grouped ~name:"mine" tests)

let b3 () =
  header "B3  Estimator cost vs itemset size (m=8, 20k transactions)";
  let universe = 500 and size = 8 and count = 20_000 in
  let rng = Rng.create ~seed:3 () in
  let db = Ppdm_datagen.Simple.fixed_size rng ~universe ~size ~count in
  let d = Optimizer.design ~m:size ~gamma:19. Optimizer.Max_kept in
  let scheme =
    Randomizer.select_a_size ~universe ~size ~keep_dist:d.Optimizer.dist
      ~rho:d.Optimizer.rho
  in
  let data = Draw.tagged scheme rng db in
  let tests =
    List.map
      (fun k ->
        let itemset = Itemset.of_list (List.init k (fun i -> i * 2)) in
        Bechamel.Test.make
          ~name:(Printf.sprintf "estimate k=%d" k)
          (Bechamel.Staged.stage (fun () ->
               ignore (Estimator.estimate ~scheme ~data ~itemset))))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  run_benchmarks ~section:"b3" (Bechamel.Test.make_grouped ~name:"estimate" tests)

let b4 () =
  header "B4  Parallel runtime scaling: randomize + candidate counting (Quest 100k)";
  Printf.printf "(%d core(s) visible to the OCaml runtime)\n"
    (Domain.recommended_domain_count ());
  let db = Experiment.quest_db ~count:100_000 () in
  let universe = Db.universe db in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.5 ~p_add:0.01 in
  (* Candidates: the frequent pairs of the raw database; they get counted
     on the randomized output, which is the miner's per-level hot loop. *)
  let candidates = List.map fst (Apriori.mine db ~min_support:0.05 ~max_size:2) in
  let work jobs =
    Pool.with_pool ~jobs (fun pool ->
        let rng = Rng.create ~seed:99 () in
        let t0 = Unix.gettimeofday () in
        let tagged = Draw.rows (Parallel.randomize pool scheme rng db) in
        let noisy = Db.create ~universe (Array.map snd tagged) in
        let counts =
          Parallel.support_counts_vertical pool (Vertical.of_db noisy)
            candidates
        in
        (Unix.gettimeofday () -. t0, tagged, counts))
  in
  let same_tagged a b =
    Array.length a = Array.length b
    && begin
         let ok = ref true in
         Array.iteri
           (fun i (s, y) ->
             let s', y' = b.(i) in
             if s <> s' || not (Itemset.equal y y') then ok := false)
           a;
         !ok
       end
  in
  let same_counts a b =
    List.length a = List.length b
    && List.for_all2
         (fun (s, c) (s', c') -> Itemset.equal s s' && c = c')
         a b
  in
  (* Warm-up run so domain spawning and the quest cache are off the clock. *)
  ignore (work 1);
  let base_dt, base_tagged, base_counts = work 1 in
  let txs = 100_000. in
  let record jobs dt =
    emit ~section:"b4" ~name:"randomize+count" ~jobs
      ~ns_per_op:(dt *. 1e9 /. txs)
      ~throughput:(txs /. Float.max 1e-9 dt) ()
  in
  record 1 base_dt;
  Printf.printf "%-6s %-10s %-9s %s\n" "jobs" "seconds" "speedup"
    "output identical to jobs=1";
  Printf.printf "%-6d %-10.3f %-9s %s\n" 1 base_dt "1.00x" "-";
  List.iter
    (fun jobs ->
      let dt, tagged, counts = work jobs in
      record jobs dt;
      Printf.printf "%-6d %-10.3f %-9s %s\n" jobs dt
        (Printf.sprintf "%.2fx" (base_dt /. dt))
        (if same_tagged tagged base_tagged && same_counts counts base_counts
         then "yes"
         else "NO — DETERMINISM VIOLATION"))
    [ 2; 4; 8 ]

let b5 () =
  header "B5  Instrumentation report: metrics over a private-mining run (jobs=4)";
  let db = Experiment.quest_db ~count:20_000 () in
  let universe = Db.universe db in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.5 ~p_add:0.01 in
  (* Start from a clean slate so only this section's work shows up, and
     leave metrics disabled again so the other sections stay uninstrumented. *)
  Ppdm_obs.Metrics.reset ();
  Ppdm_obs.Span.reset ();
  Ppdm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      (* Observability reports go to stderr, matching the CLI's --stats
         contract: stdout stays reserved for the benchmark tables. *)
      prerr_string (Ppdm_obs.Report.to_string Ppdm_obs.Report.Human);
      flush stderr)
    (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          let rng = Rng.create ~seed:7 () in
          let tagged = Draw.rows (Parallel.randomize pool scheme rng db) in
          let noisy = Db.create ~universe (Array.map snd tagged) in
          ignore (Parallel.apriori_mine pool noisy ~min_support:0.05 ~max_size:3);
          let itemset = Itemset.of_list [ 0; 1 ] in
          let stream = Stream.create ~scheme ~itemset in
          Stream.observe_all stream tagged;
          ignore (Stream.estimate stream)))

let b6 () =
  header "B6  Verification harness: ppdm_check selftest cost (count=20)";
  let t0 = Unix.gettimeofday () in
  let report = Ppdm_check.Selftest.run ~count:20 () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-28s %d\n" "checks passed" report.Ppdm_check.Selftest.passed;
  Printf.printf "%-28s %d\n" "checks failed" report.Ppdm_check.Selftest.failed;
  Printf.printf "%-28s %.2f\n" "wall seconds" dt;
  let checks =
    report.Ppdm_check.Selftest.passed + report.Ppdm_check.Selftest.failed
  in
  let per_sec = float_of_int checks /. Float.max 1e-9 dt in
  Printf.printf "%-28s %.1f\n" "checks per second" per_sec;
  if checks > 0 then
    emit ~section:"b6" ~name:"selftest"
      ~ns_per_op:(dt *. 1e9 /. float_of_int checks)
      ~throughput:per_sec ()

let b7 () =
  header "B7  Counting engines: trie vs vertical vs eclat (QUEST dense & sparse)";
  (* Two ends of the density spectrum: a small universe where most items
     go to bitmaps, and a wide sparse one where most stay tid arrays. *)
  let quest ~universe ~avg =
    let rng = Rng.create ~seed:11 () in
    Ppdm_datagen.Quest.generate rng
      {
        Ppdm_datagen.Quest.default with
        universe;
        n_transactions = 5_000;
        avg_transaction_size = avg;
      }
  in
  let datasets =
    [ ("dense", quest ~universe:100 ~avg:20.); ("sparse", quest ~universe:2_000 ~avg:5.) ]
  in
  let min_support = 0.02 in
  let tests =
    List.concat_map
      (fun (label, db) ->
        let vt = Vertical.of_db db in
        let scratch = Vertical.make_scratch vt in
        let frequent1 =
          List.map fst (Apriori.mine db ~min_support ~max_size:1)
        in
        let candidates = Apriori.candidates_from ~frequent:frequent1 ~size:2 in
        Printf.printf
          "  [%s] universe=%d density=%.4f level-2 candidates=%d tid-sets: %d \
           dense / %d sparse\n"
          label (Db.universe db) (Db.density db) (List.length candidates)
          (Vertical.dense_items vt) (Vertical.sparse_items vt);
        [
          Bechamel.Test.make
            ~name:(Printf.sprintf "%s level-2 trie" label)
            (Bechamel.Staged.stage (fun () ->
                 ignore (Count.support_counts db candidates)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "%s level-2 vertical" label)
            (Bechamel.Staged.stage (fun () ->
                 ignore (Vertical.support_counts ~scratch vt candidates)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "%s apriori trie" label)
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Ppdm_check.Oracle.trie_apriori db ~min_support
                      ~max_size:3)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "%s apriori vertical" label)
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Apriori.mine db ~min_support ~max_size:3)));
          Bechamel.Test.make
            ~name:(Printf.sprintf "%s eclat" label)
            (Bechamel.Staged.stage (fun () ->
                 ignore (Eclat.mine db ~min_support ~max_size:3)));
        ])
      datasets
  in
  run_benchmarks ~section:"b7" (Bechamel.Test.make_grouped ~name:"engines" tests)

let b8 () =
  header "B8  Ingest service: loopback throughput vs batch size and shard count";
  (* A fixed pre-randomized dataset streamed over real loopback sockets by
     two client domains; the clock covers connect, handshake, streaming,
     the per-session sync barrier, and the final flushed fold.  The batch
     knob trades folder wake-ups against latency; shards add folder
     parallelism (each shard owns one accumulator and one domain). *)
  let universe = 200 and size = 5 and count = 20_000 in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.7 ~p_add:0.02 in
  let rng = Rng.create ~seed:31 () in
  let db = Ppdm_datagen.Simple.fixed_size rng ~universe ~size ~count in
  let data = Draw.tagged scheme rng db in
  let itemsets = [ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 2 ] ] in
  let clients = 2 in
  let run ~shards ~batch =
    let server =
      Ppdm_server.Serve.start
        {
          (Ppdm_server.Serve.default_config ~scheme ~itemsets) with
          jobs = clients;
          shards;
          batch;
        }
    in
    let port = Ppdm_server.Serve.port server in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init clients (fun i ->
          Domain.spawn (fun () ->
              let c = Ppdm_server.Client.connect ~port () in
              Fun.protect
                ~finally:(fun () -> Ppdm_server.Client.close c)
                (fun () ->
                  ignore
                    (Ppdm_server.Client.handshake c ~scheme ~sizes:[ size ] ());
                  let lo = i * count / clients
                  and hi = (i + 1) * count / clients in
                  for j = lo to hi - 1 do
                    let sz, y = data.(j) in
                    Ppdm_server.Client.report c ~size:sz y
                  done;
                  (* Round-trip: every report above reached the shard
                     queues before this client counts itself done. *)
                  ignore (Ppdm_server.Client.snapshot c ~flush:false))))
    in
    List.iter Domain.join domains;
    ignore (Ppdm_server.Serve.snapshot_estimates server ~flush:true);
    let dt = Unix.gettimeofday () -. t0 in
    let stats = Ppdm_server.Serve.stop server in
    (dt, stats.Ppdm_server.Serve.reports)
  in
  (* Warm-up run so domain spawning and allocation are off the clock. *)
  ignore (run ~shards:1 ~batch:64);
  Printf.printf "%-8s %-8s %-10s %-12s %s\n" "shards" "batch" "seconds"
    "reports/s" "folded";
  List.iter
    (fun shards ->
      List.iter
        (fun batch ->
          let dt, folded = run ~shards ~batch in
          let per_sec = float_of_int folded /. Float.max 1e-9 dt in
          emit ~section:"b8"
            ~name:(Printf.sprintf "ingest/shards=%d/batch=%d" shards batch)
            ~jobs:shards
            ~ns_per_op:(dt *. 1e9 /. float_of_int folded)
            ~throughput:per_sec ();
          Printf.printf "%-8d %-8d %-10.3f %-12.0f %d\n" shards batch dt
            per_sec folded)
        [ 1; 64; 1024 ])
    [ 1; 2; 4 ]

let b10 () =
  header
    "B10 Scaling efficiency: 2-D grid counting on the pool (QUEST)";
  Printf.printf
    "(%d core(s) visible to the OCaml runtime; on a single-core box only\n\
    \ determinism is demonstrable here — speedup needs a multicore run)\n"
    (Domain.recommended_domain_count ());
  let quest ~universe ~avg =
    let rng = Rng.create ~seed:11 () in
    Ppdm_datagen.Quest.generate rng
      {
        Ppdm_datagen.Quest.default with
        universe;
        n_transactions = 5_000;
        avg_transaction_size = avg;
      }
  in
  (* Transactions sorted big-first: item occurrences pile into the low
     tid windows, so per-cell sparse-probe cost falls off steeply along
     the word axis — a skewed load for the shared task queue. *)
  let skewed db =
    let txs = Array.copy (Db.transactions db) in
    Array.sort
      (fun a b -> compare (Itemset.cardinal b) (Itemset.cardinal a))
      txs;
    Db.create ~universe:(Db.universe db) txs
  in
  let datasets =
    [
      ("dense", quest ~universe:100 ~avg:20.);
      ("sparse", quest ~universe:2_000 ~avg:5.);
      ("skewed", skewed (quest ~universe:2_000 ~avg:5.));
    ]
  in
  (* Best of several reps of an inner loop: immune to scheduler blips at
     these sub-millisecond scales. *)
  let time f =
    let inner = 10 and reps = 5 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to inner do
        f ()
      done;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int inner)
    done;
    !best
  in
  let min_support = 0.02 in
  List.iter
    (fun (label, db) ->
      let vt = Vertical.of_db db in
      let frequent1 = List.map fst (Apriori.mine db ~min_support ~max_size:1) in
      let candidates = Apriori.candidates_from ~frequent:frequent1 ~size:2 in
      let reference = Vertical.support_counts vt candidates in
      Printf.printf "  [%s] words=%d level-2 candidates=%d\n" label
        (Vertical.word_count vt) (List.length candidates);
      Printf.printf "  %-6s %-12s %-9s %s\n" "jobs" "seconds" "speedup"
        "identical to sequential";
      (* Small cells on purpose: ~7 word windows x ~4 candidate columns
         gives the pool an actual grid to spread even at this
         bench-friendly database size. *)
      let chunk = 12 and cand_chunk = 64 in
      let base = ref None in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let count () =
                Parallel.support_counts_vertical pool ~chunk ~cand_chunk vt
                  candidates
              in
              let got = count () in
              let dt = time (fun () -> ignore (count ())) in
              if !base = None then base := Some dt;
              (* the "/chunked" suffix keeps the rows keyed as in
                 bench/BASELINE.json *)
              emit ~section:"b10"
                ~name:(Printf.sprintf "count/%s/chunked" label)
                ~jobs ~ns_per_op:(dt *. 1e9) ~throughput:(1. /. dt) ();
              Printf.printf "  %-6d %-12.6f %-9s %s\n" jobs dt
                (Printf.sprintf "%.2fx" (Option.get !base /. dt))
                (if got = reference then "yes"
                 else "NO — DETERMINISM VIOLATION")))
        [ 1; 2; 4; 8 ])
    datasets

let b11 () =
  header "B11 Telemetry cost: scrape rendering and admin-plane ingest overhead";
  let time f =
    let inner = 10 and reps = 5 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to inner do
        f ()
      done;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int inner)
    done;
    !best
  in
  (* Scrape cost on a deliberately populated registry: the exposition is
     rendered on demand per GET, so this prices one scrape (and one
     consumer-side validate) — work that happens on the admin loop's
     domain, never on the data path. *)
  Ppdm_obs.Metrics.reset ();
  Ppdm_obs.Window.reset ();
  Ppdm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      Ppdm_obs.Metrics.reset ();
      Ppdm_obs.Window.reset ())
    (fun () ->
      for s = 0 to 7 do
        Ppdm_obs.Metrics.gauge
          (Printf.sprintf "server.queue.depth.s%d" s)
          (float_of_int (s * 11));
        Ppdm_obs.Metrics.add
          (Printf.sprintf "pool.busy_ns.w%d" s)
          ((s + 1) * 1_000_000)
      done;
      Ppdm_obs.Exposition.note_start ~now:0 ();
      for i = 1 to 10_000 do
        Ppdm_obs.Metrics.observe "server.fold.latency_ns" (i * 97);
        Ppdm_obs.Window.observe ~now:(i * 1_000_000) "server.fold.latency_ns"
          (i * 97);
        Ppdm_obs.Window.mark ~now:(i * 1_000_000) "server.ingest" 3
      done;
      Ppdm_obs.Metrics.add "server.reports" 30_000;
      let now = 10_000 * 1_000_000 in
      let body = Ppdm_obs.Exposition.render ~now () in
      let render_dt =
        time (fun () -> ignore (Ppdm_obs.Exposition.render ~now ()))
      in
      let validate_dt =
        time (fun () ->
            match Ppdm_obs.Exposition.validate body with
            | Ok _ -> ()
            | Error e -> failwith ("b11: rendered registry invalid: " ^ e))
      in
      emit ~section:"b11" ~name:"scrape/render" ~ns_per_op:(render_dt *. 1e9)
        ~throughput:(1. /. render_dt) ();
      emit ~section:"b11" ~name:"scrape/validate"
        ~ns_per_op:(validate_dt *. 1e9) ~throughput:(1. /. validate_dt) ();
      Printf.printf
        "scrape: render %.0fus   validate %.0fus   (%d bytes, 10k-sample \
         histograms)\n"
        (render_dt *. 1e6) (validate_dt *. 1e6)
        (String.length body));
  (* Ingest throughput with the admin plane off vs on (1ms sampler — 1000x
     the default rate — plus live metrics recording on the fold path).
     This is the B8 loopback pipeline at one fixed operating point; the
     acceptance bar is an overhead within run-to-run noise. *)
  let universe = 200 and size = 5 and count = 20_000 in
  let scheme = Randomizer.uniform ~universe ~p_keep:0.7 ~p_add:0.02 in
  let rng = Rng.create ~seed:31 () in
  let db = Ppdm_datagen.Simple.fixed_size rng ~universe ~size ~count in
  let data = Draw.tagged scheme rng db in
  let itemsets = [ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 2 ] ] in
  let clients = 2 in
  let run ~admin =
    let server =
      Ppdm_server.Serve.start
        {
          (Ppdm_server.Serve.default_config ~scheme ~itemsets) with
          jobs = clients;
          shards = 2;
          batch = 256;
          admin_port = (if admin then Some 0 else None);
          sampler_period_ns = 1_000_000;
        }
    in
    let port = Ppdm_server.Serve.port server in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init clients (fun i ->
          Domain.spawn (fun () ->
              let c = Ppdm_server.Client.connect ~port () in
              Fun.protect
                ~finally:(fun () -> Ppdm_server.Client.close c)
                (fun () ->
                  ignore
                    (Ppdm_server.Client.handshake c ~scheme ~sizes:[ size ] ());
                  let lo = i * count / clients
                  and hi = (i + 1) * count / clients in
                  for j = lo to hi - 1 do
                    let sz, y = data.(j) in
                    Ppdm_server.Client.report c ~size:sz y
                  done;
                  ignore (Ppdm_server.Client.snapshot c ~flush:false))))
    in
    List.iter Domain.join domains;
    ignore (Ppdm_server.Serve.snapshot_estimates server ~flush:true);
    let dt = Unix.gettimeofday () -. t0 in
    (* one live scrape round-trip while the server is still up *)
    let scrape_dt =
      match Ppdm_server.Serve.admin_port server with
      | None -> None
      | Some aport ->
          let t0 = Unix.gettimeofday () in
          (match Ppdm_server.Admin.fetch ~port:aport "/metrics" with
          | Ok (200, _) -> ()
          | Ok (status, _) -> failwith (Printf.sprintf "b11: scrape %d" status)
          | Error e -> failwith ("b11: scrape: " ^ e));
          Some (Unix.gettimeofday () -. t0)
    in
    let stats = Ppdm_server.Serve.stop server in
    (dt, stats.Ppdm_server.Serve.reports, scrape_dt)
  in
  ignore (run ~admin:false) (* warm-up *);
  (* Best of 3: loopback runs are noisy and the question here is the
     floor cost of the telemetry, not queueing jitter. *)
  let best_run ~admin =
    let best = ref (run ~admin) in
    for _ = 2 to 3 do
      let ((dt, _, _) as r) = run ~admin in
      let bdt, _, _ = !best in
      if dt < bdt then best := r
    done;
    !best
  in
  let report label (dt, folded, scrape) =
    let per_sec = float_of_int folded /. Float.max 1e-9 dt in
    emit ~section:"b11"
      ~name:(Printf.sprintf "ingest/admin=%s" label)
      ~jobs:clients
      ~ns_per_op:(dt *. 1e9 /. float_of_int folded)
      ~throughput:per_sec ();
    Printf.printf "ingest admin=%-4s %.3fs   %.0f reports/s   folded %d%s\n"
      label dt per_sec folded
      (match scrape with
      | None -> ""
      | Some s -> Printf.sprintf "   (live scrape %.1fms)" (s *. 1e3));
    dt
  in
  let off_dt = report "off" (best_run ~admin:false) in
  (* metrics recording on but no admin plane: the --stats baseline the
     admin increment should be judged against *)
  let stats_dt =
    Ppdm_obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Ppdm_obs.Metrics.set_enabled false;
        Ppdm_obs.Metrics.reset ();
        Ppdm_obs.Window.reset ())
      (fun () -> report "stats" (best_run ~admin:false))
  in
  let on_dt = report "on" (best_run ~admin:true) in
  Printf.printf
    "overhead vs off: metrics recording %+.1f%%   full admin plane %+.1f%%   \
     (admin increment over recording %+.1f%%)\n"
    ((stats_dt /. off_dt -. 1.) *. 100.)
    ((on_dt /. off_dt -. 1.) *. 100.)
    ((on_dt /. stats_dt -. 1.) *. 100.);
  print_endline
    "(loopback run-to-run noise swamps single-digit percentages; judge \
     overhead across several runs)"

let b12 () =
  header
    "B12 Columnar storage: PPDMC file vs in-RAM load (QUEST)";
  (* A PPDMC payload is the tid-set in the shape [of_db] picks, so
     level-2 counting on what the file loads must match the in-RAM engine
     in time and bytes.  Also reported: the one-off convert cost, the
     load time, and the file payload against the in-RAM form. *)
  let quest ~universe ~n ~avg =
    let rng = Rng.create ~seed:11 () in
    Ppdm_datagen.Quest.generate rng
      {
        Ppdm_datagen.Quest.default with
        universe;
        n_transactions = n;
        avg_transaction_size = avg;
      }
  in
  let datasets =
    [
      ("dense", quest ~universe:100 ~n:20_000 ~avg:20.);
      ("sparse", quest ~universe:2_000 ~n:20_000 ~avg:5.);
    ]
  in
  let time f =
    let inner = 10 and reps = 5 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to inner do
        f ()
      done;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int inner)
    done;
    !best
  in
  let min_support = 0.02 in
  List.iter
    (fun (label, db) ->
      let src = Filename.temp_file "ppdm_b12" ".fimi" in
      let dst = Filename.temp_file "ppdm_b12" ".ppdmc" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ src; dst ])
        (fun () ->
          Io.write_fimi src db;
          let t0 = Unix.gettimeofday () in
          let cstats = Colfile.convert ~src ~dst () in
          let convert_dt = Unix.gettimeofday () -. t0 in
          let tx_per_sec = float_of_int (Db.length db) /. Float.max 1e-9 convert_dt in
          emit ~section:"b12"
            ~name:(Printf.sprintf "convert/%s" label)
            ~ns_per_op:(convert_dt *. 1e9) ~throughput:tx_per_sec ();
          let vt = Vertical.of_db db in
          let t0 = Unix.gettimeofday () in
          let cf = Colfile.open_file dst in
          let cvt =
            Fun.protect
              ~finally:(fun () -> Colfile.close cf)
              (fun () -> Vertical.of_colfile cf)
          in
          let load_dt = Unix.gettimeofday () -. t0 in
          let plain_bytes = Vertical.resident_bytes vt in
          let file_bytes = cstats.Colfile.cv_payload_bytes in
          Printf.printf
            "  [%s] %d tx, %d items (%d dense / %d sparse): convert %.3fs \
             (%.0f tx/s), load %.4fs\n"
            label (Db.length db) (Db.universe db) (Vertical.dense_items cvt)
            (Vertical.sparse_items cvt) convert_dt tx_per_sec load_dt;
          Printf.printf
            "  [%s] bytes: file payload %d, in-RAM %d (%.2fx the file); \
             loaded from the file %d\n"
            label file_bytes plain_bytes
            (float_of_int plain_bytes /. float_of_int (max 1 file_bytes))
            (Vertical.resident_bytes cvt);
          let frequent1 =
            List.map fst (Apriori.mine db ~min_support ~max_size:1)
          in
          let candidates = Apriori.candidates_from ~frequent:frequent1 ~size:2 in
          let prepared = Vertical.prepare candidates in
          let scratch = Vertical.make_scratch vt in
          let cscratch = Vertical.make_scratch cvt in
          let plain_dt =
            time (fun () -> ignore (Vertical.count_into ~scratch vt prepared))
          in
          let col_dt =
            time (fun () ->
                ignore (Vertical.count_into ~scratch:cscratch cvt prepared))
          in
          emit ~section:"b12"
            ~name:(Printf.sprintf "count/%s/in-ram" label)
            ~ns_per_op:(plain_dt *. 1e9) ~throughput:(1. /. plain_dt) ();
          emit ~section:"b12"
            ~name:(Printf.sprintf "count/%s/columnar" label)
            ~ns_per_op:(col_dt *. 1e9) ~throughput:(1. /. col_dt) ();
          (* memory wins nothing if the counts drift: mining from the file
             must stay byte-identical to the in-RAM engine *)
          let identical =
            Apriori.mine_vertical cvt ~min_support ~max_size:3
            = Apriori.mine db ~min_support ~max_size:3
          in
          Printf.printf
            "  [%s] level-2 count: in-RAM %.6fs, columnar %.6fs (%.2fx \
             of in-RAM); mined output identical: %s\n"
            label plain_dt col_dt (col_dt /. plain_dt)
            (if identical then "yes" else "NO — CORRECTNESS VIOLATION")))
    datasets

let b14 () =
  header "B14 Operator design: the (m, rho, k) basis and the vertex search";
  (* The design [ppdm private --operator optimized] runs at its defaults
     before it randomizes, in the caller and on a 2-domain pool (the ρ
     search's batches spread over it, as the CLI runs them).  Best of
     five; the optimizer's counters show the work, the same at both. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let design () =
            Optimizer.design_for_estimation ~run:(Pool.run pool) ~m:8
              ~gamma:19. ()
          in
          Ppdm_obs.Metrics.reset ();
          Ppdm_obs.Metrics.set_enabled true;
          let d = design () in
          let counters =
            (Ppdm_obs.Metrics.snapshot ()).Ppdm_obs.Metrics.counters
          in
          Ppdm_obs.Metrics.set_enabled false;
          Ppdm_obs.Metrics.reset ();
          let count name =
            Option.value (List.assoc_opt name counters) ~default:0
          in
          let vertices = count "optimizer.vertices" in
          let best = ref infinity in
          for _ = 1 to 5 do
            let t0 = Unix.gettimeofday () in
            ignore (Sys.opaque_identity (design ()));
            best := Float.min !best (Unix.gettimeofday () -. t0)
          done;
          let dt = !best in
          Printf.printf
            "  %-24s jobs %d: rho %.4f, %d rho evaluations, %d vertices\n"
            "design m=8 gamma=19" jobs d.Optimizer.rho
            (count "optimizer.rho_evals") vertices;
          Printf.printf "  %-24s jobs %d: %10.3f ms (%.0f ns per vertex)\n"
            "design m=8 gamma=19" jobs (dt *. 1e3)
            (dt *. 1e9 /. float_of_int (max 1 vertices));
          emit ~section:"b14" ~name:"design m=8 gamma=19" ~jobs
            ~ns_per_op:(dt *. 1e9) ~throughput:(1. /. dt) ()))
    [ 1; 2 ]

(* Wall-clock per section keeps the harness honest about its own cost. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%.1fs]\n%!" (Unix.gettimeofday () -. t0)

let sections =
  [ ("t1", t1); ("t2", t2); ("t3", t3); ("f1", f1); ("f2", f2); ("f3", f3);
    ("f4", f4); ("f5", f5); ("a1", a1); ("a2", a2); ("a4", a4); ("e1", e1);
    ("b1", b1); ("b2", b2); ("b3", b3); ("b4", b4); ("b5", b5);
    ("b6", b6); ("b7", b7); ("b8", b8); ("b10", b10);
    ("b11", b11); ("b12", b12); ("b14", b14) ]

(* Value of `--flag V` anywhere in argv, or None. *)
let argv_opt flag =
  let found = ref None in
  Array.iteri
    (fun i arg ->
      if arg = flag && i + 1 < Array.length Sys.argv then
        found := Some Sys.argv.(i + 1))
    Sys.argv;
  !found

let () =
  let tables_only = Array.exists (( = ) "--tables-only") Sys.argv in
  (* --only t1,f4,... runs just the named sections (for appending to a
     partial log or quick iteration) *)
  let only = Option.map (String.split_on_char ',') (argv_opt "--only") in
  (* --json FILE writes one aggregate measurement file (CI smoke);
     --json-dir DIR picks where the per-section BENCH_<s>.json land. *)
  let json_out = argv_opt "--json" in
  let json_dir = Option.value (argv_opt "--json-dir") ~default:"." in
  (match only with
  | Some names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) sections with
          | Some f -> timed f
          | None -> Printf.eprintf "unknown section %s\n" name)
        names
  | None ->
      List.iter timed [ t1; t2; t3; f1; f2; f3; f4; f5; a1; a2; a4; e1 ];
      if not tables_only then List.iter timed [ b1; b2; b3; b4; b5; b6 ]);
  write_measurements ~json_dir ~json_out;
  print_newline ()
