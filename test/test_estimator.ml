(* Support-recovery tests: exact recovery under the identity operator,
   accuracy and unbiasedness on planted-support data, agreement of the
   predicted sigma with the empirical spread, mixed-size pooling, and the
   discoverability threshold. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm

let identity_scheme universe = Randomizer.uniform ~universe ~p_keep:1. ~p_add:0.

let test_identity_exact_recovery () =
  let rng = Rng.create ~seed:1 () in
  let universe = 40 in
  let itemset = Itemset.of_list [ 2; 5 ] in
  let db = Simple.planted rng ~universe ~size:6 ~count:500 ~itemset ~support:0.2 in
  let scheme = identity_scheme universe in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let e = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check (float 1e-9)) "support exact" 0.2 e.Estimator.support;
  Alcotest.(check (float 1e-9)) "sigma zero" 0. e.Estimator.sigma;
  (* partials must match the observable truth *)
  let truth = Db.partial_support_counts db itemset in
  Array.iteri
    (fun l c ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "partial %d" l)
        (float_of_int c /. 500.)
        e.Estimator.partials.(l))
    truth

let test_observed_partial_counts () =
  let data =
    [|
      (3, Itemset.of_list [ 0; 1 ]);
      (3, Itemset.of_list [ 0 ]);
      (2, Itemset.of_list [ 5 ]);
    |]
  in
  let groups = Estimator.observed_partial_counts data ~itemset:(Itemset.of_list [ 0; 1 ]) in
  Alcotest.(check (list (pair int (array int))))
    "grouped counts"
    [ (2, [| 1; 0; 0 |]); (3, [| 0; 1; 1 |]) ]
    groups

let planted_setup ~seed ~universe ~size ~count ~support ~k =
  let rng = Rng.create ~seed () in
  let itemset = Itemset.of_list (List.init k (fun i -> i * 3)) in
  let db = Simple.planted rng ~universe ~size ~count ~itemset ~support in
  (rng, itemset, db)

let test_randomized_recovery_within_5_sigma () =
  let universe = 200 and size = 8 and count = 20_000 and support = 0.15 in
  let rng, itemset, db =
    planted_setup ~seed:2 ~universe ~size ~count ~support ~k:2
  in
  let scheme =
    Randomizer.select_a_size ~universe ~size
      ~keep_dist:[| 0.02; 0.03; 0.05; 0.1; 0.15; 0.2; 0.2; 0.15; 0.1 |]
      ~rho:0.05
  in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let e = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f within 5 sigma (%.4f) of %.4f"
       e.Estimator.support e.Estimator.sigma support)
    true
    (Float.abs (e.Estimator.support -. support) < 5. *. e.Estimator.sigma);
  Alcotest.(check bool) "sigma itself is sane" true
    (e.Estimator.sigma > 0. && e.Estimator.sigma < 0.1)

let test_unbiasedness_and_sigma_calibration () =
  let universe = 100 and size = 5 and count = 4000 and support = 0.2 in
  let itemset = Itemset.of_list [ 0; 3 ] in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.04 in
  let trials = 40 in
  let estimates = Array.make trials 0. in
  let sigmas = Array.make trials 0. in
  for i = 0 to trials - 1 do
    let rng = Rng.create ~seed:(100 + i) () in
    let db = Simple.planted rng ~universe ~size ~count ~itemset ~support in
    let data = Randomizer.apply_db_tagged scheme rng db in
    let e = Estimator.estimate ~scheme ~data ~itemset in
    estimates.(i) <- e.Estimator.support;
    sigmas.(i) <- e.Estimator.sigma
  done;
  let mean = Ppdm_linalg.Stats.mean estimates in
  let spread = Ppdm_linalg.Stats.std estimates in
  let claimed = Ppdm_linalg.Stats.mean sigmas in
  Alcotest.(check bool)
    (Printf.sprintf "mean estimate %.4f near %.4f" mean support)
    true
    (Float.abs (mean -. support) < 4. *. claimed /. sqrt (float_of_int trials));
  Alcotest.(check bool)
    (Printf.sprintf "claimed sigma %.4f within 2x of empirical %.4f" claimed spread)
    true
    (claimed /. spread > 0.5 && claimed /. spread < 2.)

let test_predicted_sigma_matches_estimated () =
  (* The a-priori sigma (from true partials) should match the plug-in sigma
     computed from one randomized sample, within sampling noise. *)
  let universe = 100 and size = 6 and count = 10_000 and support = 0.1 in
  let rng, itemset, db =
    planted_setup ~seed:7 ~universe ~size ~count ~support ~k:2
  in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.05 in
  let resolved = Randomizer.resolve scheme ~size in
  let truth = Db.partial_support_counts db itemset in
  let partials = Array.map (fun c -> float_of_int c /. float_of_int count) truth in
  let predicted = Estimator.predicted_sigma resolved ~k:2 ~partials ~n:count in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let e = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.5f near plug-in %.5f" predicted e.Estimator.sigma)
    true
    (Float.abs (predicted -. e.Estimator.sigma) /. predicted < 0.2)

let test_mixed_sizes () =
  (* two size classes, one of them smaller than k: the pooled estimate
     must still recover the overall support *)
  let universe = 60 in
  let rng = Rng.create ~seed:8 () in
  let itemset = Itemset.of_list [ 0; 1; 2 ] in
  let with_itemset =
    Simple.planted rng ~universe ~size:6 ~count:4000 ~itemset ~support:0.3
  in
  let small = Simple.fixed_size rng ~universe ~size:2 ~count:1000 in
  let db = Db.append with_itemset small in
  let true_support = Db.support db itemset in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.03 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let e = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check bool)
    (Printf.sprintf "pooled estimate %.4f within 5 sigma (%.4f) of %.4f"
       e.Estimator.support e.Estimator.sigma true_support)
    true
    (Float.abs (e.Estimator.support -. true_support) < 5. *. e.Estimator.sigma)

let test_binomial_profile () =
  let p = Estimator.binomial_profile ~k:3 ~p_bg:0.2 ~support:0.05 in
  Alcotest.(check (float 1e-12)) "top is support" 0.05 p.(3);
  Alcotest.(check (float 1e-9)) "sums to one" 1. (Array.fold_left ( +. ) 0. p);
  Array.iter (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.)) p;
  Alcotest.check_raises "bad support"
    (Invalid_argument "Estimator.binomial_profile: support out of [0,1]")
    (fun () -> ignore (Estimator.binomial_profile ~k:2 ~p_bg:0.1 ~support:(-0.1)))

let test_predicted_sigma_shrinks_with_n () =
  let resolved =
    Randomizer.resolve (Randomizer.cut_and_paste ~universe:500 ~cutoff:5 ~rho:0.1) ~size:5
  in
  let partials = Estimator.binomial_profile ~k:2 ~p_bg:0.05 ~support:0.02 in
  let s1 = Estimator.predicted_sigma resolved ~k:2 ~partials ~n:1_000 in
  let s2 = Estimator.predicted_sigma resolved ~k:2 ~partials ~n:100_000 in
  Alcotest.(check bool) "sigma scales like 1/sqrt(n)" true
    (Float.abs ((s1 /. s2) -. 10.) < 0.5)

let test_lowest_discoverable_support () =
  let op gamma =
    let d = Optimizer.design_for_estimation ~m:5 ~gamma () in
    ({ keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho } : Randomizer.resolved)
  in
  let strict = Estimator.lowest_discoverable_support (op 5.) ~k:2 ~n:100_000 ~p_bg:0.02 in
  let loose = Estimator.lowest_discoverable_support (op 50.) ~k:2 ~n:100_000 ~p_bg:0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "stricter privacy (%.4f) needs more support than looser (%.4f)"
       strict loose)
    true (strict > loose);
  Alcotest.(check bool) "both in (0,1]" true
    (strict > 0. && strict <= 1. && loose > 0.);
  (* the defining property: sigma at the threshold is about half of it *)
  let s = loose in
  if s < 1. then begin
    let sigma =
      Estimator.predicted_sigma (op 50.) ~k:2
        ~partials:(Estimator.binomial_profile ~k:2 ~p_bg:0.02 ~support:s)
        ~n:100_000
    in
    Alcotest.(check bool)
      (Printf.sprintf "sigma %.5f ~ s/2 %.5f" sigma (s /. 2.))
      true
      (Float.abs (sigma -. (s /. 2.)) /. (s /. 2.) < 0.05)
  end

let test_partials_sum_to_one () =
  (* P is column-stochastic, so the recovered partials sum to exactly the
     observed total mass: 1 *)
  let rng = Rng.create ~seed:15 () in
  let universe = 60 in
  let db = Simple.fixed_size rng ~universe ~size:5 ~count:2000 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.1 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  List.iter
    (fun items ->
      let itemset = Itemset.of_list items in
      let e = Estimator.estimate ~scheme ~data ~itemset in
      Alcotest.(check (float 1e-9)) "partials sum to 1" 1.
        (Array.fold_left ( +. ) 0. e.Estimator.partials))
    [ [ 0 ]; [ 1; 2 ]; [ 3; 4; 5 ] ]

let test_confidence_interval () =
  let e : Estimator.t =
    {
      support = 0.2;
      partials = [| 0.8; 0.2 |];
      sigma = 0.05;
      covariance = Ppdm_linalg.Mat.identity 2;
      n_transactions = 100;
      n_population = 100;
    }
  in
  let lo, hi = Estimator.confidence_interval e ~level:0.95 in
  Alcotest.(check bool) "lo" true (Float.abs (lo -. (0.2 -. (1.959964 *. 0.05))) < 1e-4);
  Alcotest.(check bool) "hi" true (Float.abs (hi -. (0.2 +. (1.959964 *. 0.05))) < 1e-4);
  (* clamping *)
  let tight = { e with support = 0.01; sigma = 0.5 } in
  let lo, hi = Estimator.confidence_interval tight ~level:0.99 in
  Alcotest.(check (float 1e-12)) "clamped low" 0. lo;
  Alcotest.(check bool) "clamped high" true (hi <= 1.);
  Alcotest.check_raises "bad level"
    (Invalid_argument "Estimator.confidence_interval: level must be in (0,1)")
    (fun () -> ignore (Estimator.confidence_interval e ~level:1.))

let test_empty_data_rejected () =
  let scheme = identity_scheme 10 in
  Alcotest.check_raises "empty data"
    (Invalid_argument "Estimator.estimate: empty data") (fun () ->
      ignore (Estimator.estimate ~scheme ~data:[||] ~itemset:(Itemset.singleton 0)))

let test_all_zero_size_class () =
  (* Regression: a size class with no observations used to divide by
     zero inside estimate_class and poison the pooled estimate with
     NaN.  It must now be skipped as carrying no information. *)
  let scheme = Randomizer.uniform ~universe:20 ~p_keep:0.9 ~p_add:0.05 in
  let counts = [ (3, [| 0; 0; 0 |]); (5, [| 70; 20; 10 |]) ] in
  let e = Estimator.estimate_from_counts ~scheme ~k:2 ~counts in
  Alcotest.(check bool) "support is a number" false (Float.is_nan e.Estimator.support);
  Alcotest.(check bool) "sigma is a number" false (Float.is_nan e.Estimator.sigma);
  (* and the zero class contributes nothing: dropping it changes nothing *)
  let only = Estimator.estimate_from_counts ~scheme ~k:2 ~counts:[ (5, [| 70; 20; 10 |]) ] in
  Alcotest.(check (float 1e-12)) "same support" only.Estimator.support e.Estimator.support;
  Alcotest.(check (float 1e-12)) "same sigma" only.Estimator.sigma e.Estimator.sigma;
  Alcotest.(check int) "n counts observed rows only" 100 e.Estimator.n_transactions

let test_sampling_covariance () =
  let partials = [| 0.7; 0.2; 0.1 |] in
  (* no sampling -> exactly zero *)
  let m0 = Estimator.sampling_covariance ~partials ~n:50 ~population:50 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.)) "zero at full census" 0. (Ppdm_linalg.Mat.get m0 i j)
    done
  done;
  (* FPC multinomial form at n of N *)
  let n = 100 and population = 1000 in
  let m = Estimator.sampling_covariance ~partials ~n ~population in
  let fpc =
    float_of_int (population - n) /. float_of_int (population - 1)
  in
  let expect i j =
    let s = partials.(i) in
    fpc /. float_of_int n
    *. (if i = j then s *. (1. -. s) else -.s *. partials.(j))
  in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "entry (%d,%d)" i j)
        (expect i j) (Ppdm_linalg.Mat.get m i j)
    done
  done;
  Alcotest.(check (float 1e-12)) "sampling_sigma is the sqrt diagonal"
    (sqrt (expect 2 2))
    (Estimator.sampling_sigma ~support:partials.(2) ~n ~population);
  Alcotest.check_raises "population below sample"
    (Invalid_argument "Estimator.sampling_covariance: population smaller than sample")
    (fun () -> ignore (Estimator.sampling_covariance ~partials ~n:10 ~population:9))

let test_estimate_from_counts_sampled () =
  let scheme = Randomizer.uniform ~universe:20 ~p_keep:0.9 ~p_add:0.05 in
  let counts = [ (5, [| 70; 20; 10 |]) ] in
  let plain = Estimator.estimate_from_counts ~scheme ~k:2 ~counts in
  let sampled =
    Estimator.estimate_from_counts_sampled ~population:1000 ~scheme ~k:2 ~counts
  in
  Alcotest.(check (float 1e-12)) "same point estimate"
    plain.Estimator.support sampled.Estimator.support;
  Alcotest.(check bool)
    (Printf.sprintf "combined sigma %.5f exceeds randomization-only %.5f"
       sampled.Estimator.sigma plain.Estimator.sigma)
    true
    (sampled.Estimator.sigma > plain.Estimator.sigma);
  Alcotest.(check int) "n_transactions is the sample" 100 sampled.Estimator.n_transactions;
  Alcotest.(check int) "n_population is the database" 1000 sampled.Estimator.n_population;
  Alcotest.(check int) "plain population equals sample" 100 plain.Estimator.n_population;
  (* population = total degenerates to the plain estimate *)
  let full = Estimator.estimate_from_counts_sampled ~population:100 ~scheme ~k:2 ~counts in
  Alcotest.(check (float 1e-12)) "census sigma unchanged"
    plain.Estimator.sigma full.Estimator.sigma;
  Alcotest.check_raises "population below total"
    (Invalid_argument "Estimator.estimate_from_counts: population smaller than sample")
    (fun () ->
      ignore (Estimator.estimate_from_counts_sampled ~population:99 ~scheme ~k:2 ~counts))

let test_population_widens_predictions () =
  let resolved =
    Randomizer.resolve (Randomizer.uniform ~universe:50 ~p_keep:0.8 ~p_add:0.1) ~size:5
  in
  let partials = Estimator.binomial_profile ~k:2 ~p_bg:0.1 ~support:0.1 in
  let without = Estimator.predicted_sigma resolved ~k:2 ~partials ~n:2_000 in
  let with_pop =
    Estimator.predicted_sigma ~population:50_000 resolved ~k:2 ~partials ~n:2_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled sigma %.5f > census sigma %.5f" with_pop without)
    true (with_pop > without);
  Alcotest.(check (float 1e-12)) "population = n is a census" without
    (Estimator.predicted_sigma ~population:2_000 resolved ~k:2 ~partials ~n:2_000);
  let lds = Estimator.lowest_discoverable_support resolved ~k:2 ~n:2_000 ~p_bg:0.1 in
  let lds_pop =
    Estimator.lowest_discoverable_support ~population:50_000 resolved ~k:2 ~n:2_000
      ~p_bg:0.1
  in
  Alcotest.(check bool)
    (Printf.sprintf "discoverability threshold rises: %.4f -> %.4f" lds lds_pop)
    true (lds_pop >= lds)

(* Every size class the private miner factorizes reports its condition
   number as a gauge named after the class and k, and the JSON report of
   [--stats json] carries it. *)
let test_condition_gauges () =
  let open Ppdm_obs in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let rng = Rng.create ~seed:11 () in
      let universe = 12 in
      let db =
        Simple.planted rng ~universe ~size:5 ~count:2_000
          ~itemset:(Itemset.of_list [ 1; 2 ]) ~support:0.3
      in
      let scheme = Randomizer.uniform ~universe ~p_keep:0.8 ~p_add:0.05 in
      let data = Randomizer.apply_db_tagged scheme rng db in
      ignore (Ppmining.mine ~scheme ~data ~min_support:0.1 ~max_size:2 ());
      let snap = Metrics.snapshot () in
      let solves =
        Option.value (List.assoc_opt "estimator.solves" snap.Metrics.counters)
          ~default:0
      in
      let cond =
        List.filter
          (fun (name, _) -> String.starts_with ~prefix:"estimator.cond." name)
          snap.Metrics.gauges
      in
      Alcotest.(check bool) "some solves" true (solves > 0);
      Alcotest.(check int) "one gauge per factorization" solves (List.length cond);
      List.iter
        (fun k ->
          let name = Printf.sprintf "estimator.cond.s5.k%d" k in
          let want =
            Ppdm_linalg.Lu.cond_inf_estimate (Transition.of_scheme scheme ~size:5 ~k)
          in
          match List.assoc_opt name cond with
          | None -> Alcotest.failf "missing gauge %s" name
          | Some got -> Alcotest.(check (float 1e-9)) name want got)
        [ 1; 2 ];
      let json = Report.to_string Report.Json in
      Alcotest.(check bool) "gauge in the JSON report" true
        (List.exists
           (fun line ->
             match Json.parse line with
             | Ok v ->
                 Json.member "type" v = Some (Json.String "gauge")
                 && Json.member "name" v = Some (Json.String "estimator.cond.s5.k2")
             | Error _ -> false)
           (String.split_on_char '\n' json)))

let suite =
  [
    Alcotest.test_case "identity recovers exactly" `Quick test_identity_exact_recovery;
    Alcotest.test_case "observed partial counts" `Quick test_observed_partial_counts;
    Alcotest.test_case "recovery within 5 sigma" `Slow test_randomized_recovery_within_5_sigma;
    Alcotest.test_case "unbiasedness and sigma calibration" `Slow
      test_unbiasedness_and_sigma_calibration;
    Alcotest.test_case "predicted vs plug-in sigma" `Slow test_predicted_sigma_matches_estimated;
    Alcotest.test_case "mixed transaction sizes" `Quick test_mixed_sizes;
    Alcotest.test_case "binomial profile" `Quick test_binomial_profile;
    Alcotest.test_case "sigma scaling in n" `Quick test_predicted_sigma_shrinks_with_n;
    Alcotest.test_case "lowest discoverable support" `Quick test_lowest_discoverable_support;
    Alcotest.test_case "partials sum to one" `Quick test_partials_sum_to_one;
    Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
    Alcotest.test_case "empty data rejected" `Quick test_empty_data_rejected;
    Alcotest.test_case "all-zero size class skipped" `Quick test_all_zero_size_class;
    Alcotest.test_case "sampling covariance closed form" `Quick test_sampling_covariance;
    Alcotest.test_case "condition-number gauges" `Quick test_condition_gauges;
    Alcotest.test_case "estimate from sampled counts" `Quick
      test_estimate_from_counts_sampled;
    Alcotest.test_case "population widens predictions" `Quick
      test_population_widens_predictions;
  ]
