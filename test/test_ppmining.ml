(* End-to-end privacy-preserving mining tests: exactness under the identity
   operator, recovery of planted itemsets under real randomization, and the
   accuracy bookkeeping. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm

let identity_scheme universe = Randomizer.uniform ~universe ~p_keep:1. ~p_add:0.

let itemset_list result =
  List.map (fun d -> d.Ppmining.itemset) result.Ppmining.discovered

let test_identity_equals_apriori () =
  let rng = Rng.create ~seed:1 () in
  let params = { Quest.default with n_transactions = 800; universe = 60 } in
  let db = Quest.generate rng params in
  let scheme = identity_scheme 60 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let min_support = 0.04 in
  let truth = Apriori.mine db ~min_support in
  let mined = Ppmining.mine ~scheme ~data ~min_support () in
  Alcotest.(check (list string)) "same itemsets as Apriori"
    (List.map (fun (s, _) -> Itemset.to_string s) truth)
    (List.map Itemset.to_string (itemset_list mined));
  (* estimates equal the exact supports *)
  List.iter2
    (fun (s, c) d ->
      Alcotest.(check string) "aligned" (Itemset.to_string s)
        (Itemset.to_string d.Ppmining.itemset);
      Alcotest.(check (float 1e-9)) "support exact"
        (float_of_int c /. float_of_int (Db.length db))
        d.Ppmining.est_support)
    truth mined.Ppmining.discovered;
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  Alcotest.(check int) "no false positives" 0 acc.Ppmining.false_positives;
  Alcotest.(check int) "no false drops" 0 acc.Ppmining.false_drops;
  Alcotest.(check int) "all found" (List.length truth) acc.Ppmining.true_positives

let test_planted_recovery_under_randomization () =
  let universe = 120 and size = 6 and count = 15_000 in
  let rng = Rng.create ~seed:2 () in
  let itemset = Itemset.of_list [ 4; 9 ] in
  let db = Simple.planted rng ~universe ~size ~count ~itemset ~support:0.25 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.03 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.15 ~max_size:2 () in
  Alcotest.(check bool) "planted pair discovered" true
    (List.exists (fun s -> Itemset.equal s itemset) (itemset_list mined));
  (* its estimate should be near the truth *)
  let d =
    List.find (fun d -> Itemset.equal d.Ppmining.itemset itemset) mined.Ppmining.discovered
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 5 sigma of 0.25" d.Ppmining.est_support)
    true
    (Float.abs (d.Ppmining.est_support -. 0.25) < 5. *. d.Ppmining.sigma)

let test_max_size_respected () =
  let rng = Rng.create ~seed:3 () in
  let db = Quest.generate rng { Quest.default with n_transactions = 500; universe = 50 } in
  let scheme = identity_scheme 50 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.02 ~max_size:1 () in
  List.iter
    (fun d -> Alcotest.(check int) "singletons only" 1 (Itemset.cardinal d.Ppmining.itemset))
    mined.Ppmining.discovered

let test_explored_superset () =
  let rng = Rng.create ~seed:4 () in
  let db = Quest.generate rng { Quest.default with n_transactions = 500; universe = 50 } in
  let scheme = Randomizer.cut_and_paste ~universe:50 ~cutoff:8 ~rho:0.05 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.05 ~max_size:3 () in
  let explored = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace explored d.Ppmining.itemset ()) mined.Ppmining.explored;
  List.iter
    (fun d ->
      Alcotest.(check bool) "discovered is explored" true
        (Hashtbl.mem explored d.Ppmining.itemset))
    mined.Ppmining.discovered;
  Alcotest.(check bool) "explored at least as large" true
    (List.length mined.Ppmining.explored >= List.length mined.Ppmining.discovered)

let test_level_two_fast_path_consistency () =
  (* pairs counted on the class windows must agree with the generic
     per-candidate estimator *)
  let rng = Rng.create ~seed:6 () in
  let universe = 40 in
  let db = Quest.generate rng { Quest.default with n_transactions = 600; universe } in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.08 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined =
    Ppmining.mine ~scheme ~data ~min_support:0.03 ~max_size:2 ~sigma_cap:1. ()
  in
  let pairs =
    List.filter (fun d -> Itemset.cardinal d.Ppmining.itemset = 2) mined.Ppmining.explored
  in
  Alcotest.(check bool) "some pairs explored" true (pairs <> []);
  List.iter
    (fun d ->
      let direct = Estimator.estimate ~scheme ~data ~itemset:d.Ppmining.itemset in
      Alcotest.(check (float 1e-9))
        (Itemset.to_string d.Ppmining.itemset ^ " support")
        direct.Estimator.support d.Ppmining.est_support;
      Alcotest.(check (float 1e-9))
        (Itemset.to_string d.Ppmining.itemset ^ " sigma")
        direct.Estimator.sigma d.Ppmining.sigma)
    pairs

let test_sigma_cap_prunes () =
  (* with a tiny cap nothing noisy survives *)
  let rng = Rng.create ~seed:7 () in
  let universe = 40 in
  let db = Quest.generate rng { Quest.default with n_transactions = 300; universe } in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:3 ~rho:0.2 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.05 ~max_size:2 ~sigma_cap:1e-9 () in
  Alcotest.(check int) "nothing explored under a zero cap" 0
    (List.length mined.Ppmining.explored)

let test_accuracy_bookkeeping () =
  let mk l = Itemset.of_list l in
  let truth = [ (mk [ 0 ], 10); (mk [ 1 ], 8); (mk [ 0; 1 ], 5) ] in
  let mined =
    {
      Ppmining.discovered =
        [
          { Ppmining.itemset = mk [ 0 ]; est_support = 0.5; sigma = 0.01 };
          { Ppmining.itemset = mk [ 2 ]; est_support = 0.4; sigma = 0.01 };
        ];
      explored = [];
    }
  in
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  Alcotest.(check int) "tp" 1 acc.Ppmining.true_positives;
  Alcotest.(check int) "fp" 1 acc.Ppmining.false_positives;
  Alcotest.(check int) "drops" 2 acc.Ppmining.false_drops

let test_validation () =
  let scheme = identity_scheme 10 in
  (* NaN fails every comparison, so only a positive range test rejects it *)
  List.iter
    (fun m ->
      Alcotest.check_raises
        (Printf.sprintf "bad support %g" m)
        (Invalid_argument "Ppmining.mine: min_support out of (0,1]")
        (fun () ->
          ignore
            (Ppmining.mine ~scheme
               ~data:[| (1, Itemset.singleton 0) |]
               ~min_support:m ())))
    [ 0.; nan; 1.5 ];
  Alcotest.check_raises "empty data"
    (Invalid_argument "Ppmining.mine: empty data") (fun () ->
      ignore (Ppmining.mine ~scheme ~data:[||] ~min_support:0.1 ()));
  List.iter
    (fun row ->
      Alcotest.check_raises "row outside the universe"
        (Invalid_argument "Reports.of_tagged: size or item outside the universe")
        (fun () -> ignore (Ppmining.mine ~scheme ~data:[| row |] ~min_support:0.1 ())))
    [ (1, Itemset.singleton 10); (11, Itemset.singleton 0); (-1, Itemset.empty) ]

let test_reference_differential () =
  match Ppdm_check.Selftest.private_miner_differential ~seed:42 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Binomial inversion of subset supports, taken straight from the rows of
   each size class, must reproduce the per-class partial counts. *)
let test_partial_counts_inversion () =
  let open Ppdm_check in
  Property.assert_ok
    (Property.check_result ~name:"inclusion-exclusion partial counts"
       (Gen.pair
          (Gen.db ~min_universe:4 ~max_universe:10 ~max_transactions:40 ())
          (Gen.int_range 0 1_000_000))
       (fun (db, key) ->
         let universe = Db.universe db in
         let rng = Rng.create ~seed:key () in
         let scheme = Gen.generate (Gen.scheme ~universe) rng ~size:4 in
         let data = Randomizer.apply_db_tagged scheme rng db in
         let rec ks k =
           if k > 4 then Ok ()
           else begin
             let itemset =
               Gen.generate (Gen.fixed_size_transaction ~universe ~card:k) rng
                 ~size:k
             in
             let items = Itemset.to_array itemset in
             let sizes =
               List.sort_uniq Int.compare (Array.to_list (Array.map fst data))
             in
             let inverted =
               List.map
                 (fun size ->
                   let support mask =
                     let subset =
                       Itemset.of_list
                         (List.filteri
                            (fun b _ -> (mask lsr b) land 1 = 1)
                            (Array.to_list items))
                     in
                     Array.fold_left
                       (fun acc (sz, y) ->
                         if sz = size && Itemset.subset subset y then acc + 1
                         else acc)
                       0 data
                   in
                   (size, Ppmining.partial_counts ~k support))
                 sizes
             in
             if inverted = Estimator.observed_partial_counts data ~itemset then
               ks (k + 1)
             else Error (Printf.sprintf "k = %d, itemset %s" k (Itemset.to_string itemset))
           end
         in
         ks 1))

(* An operator whose keep and add probabilities coincide carries no
   signal: every route fails with the same typed error. *)
let test_degenerate_class_rejected () =
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:0.3 ~p_add:0.3 in
  let data =
    [| (2, Itemset.of_list [ 0; 1 ]); (2, Itemset.of_list [ 3; 7 ]); (2, Itemset.empty) |]
  in
  let unrecoverable k = Estimator.Unrecoverable { size = 2; k } in
  Alcotest.check_raises "mine" (unrecoverable 1) (fun () ->
      ignore (Ppmining.mine ~scheme ~data ~min_support:0.1 ()));
  Alcotest.check_raises "estimate, k = 1" (unrecoverable 1) (fun () ->
      ignore (Estimator.estimate ~scheme ~data ~itemset:(Itemset.singleton 0)));
  Alcotest.check_raises "estimate, k = 2" (unrecoverable 2) (fun () ->
      ignore (Estimator.estimate ~scheme ~data ~itemset:(Itemset.of_list [ 0; 1 ])));
  Alcotest.check_raises "predicted sigma" (unrecoverable 2) (fun () ->
      ignore
        (Estimator.predicted_sigma (Randomizer.resolve scheme ~size:2) ~k:2
           ~partials:(Estimator.binomial_profile ~k:2 ~p_bg:0.02 ~support:0.01)
           ~n:1000))

let test_max_size_zero () =
  let rng = Rng.create ~seed:8 () in
  let db = Quest.generate rng { Quest.default with n_transactions = 100; universe = 20 } in
  let scheme = identity_scheme 20 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.05 ~max_size:0 () in
  Alcotest.(check int) "nothing explored" 0 (List.length mined.Ppmining.explored)

let suite =
  [
    Alcotest.test_case "identity equals apriori" `Quick test_identity_equals_apriori;
    Alcotest.test_case "planted recovery" `Slow test_planted_recovery_under_randomization;
    Alcotest.test_case "max size respected" `Quick test_max_size_respected;
    Alcotest.test_case "explored superset" `Quick test_explored_superset;
    Alcotest.test_case "level-2 fast path consistency" `Quick
      test_level_two_fast_path_consistency;
    Alcotest.test_case "sigma cap prunes" `Quick test_sigma_cap_prunes;
    Alcotest.test_case "accuracy bookkeeping" `Quick test_accuracy_bookkeeping;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "bit-identical to the per-candidate reference" `Quick
      test_reference_differential;
    Alcotest.test_case "inclusion-exclusion partial counts" `Quick
      test_partial_counts_inversion;
    Alcotest.test_case "degenerate class rejected" `Quick
      test_degenerate_class_rejected;
    Alcotest.test_case "max size zero explores nothing" `Quick test_max_size_zero;
  ]
