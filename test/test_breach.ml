(* Distribution-dependent breach analysis: hand-checked posteriors, and
   empirical posteriors on randomized data matching the analytic ones. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
module Oracle = Ppdm_check.Oracle

(* The reports of [Parallel.randomize], as a database the adversary
   pairs with the original. *)
let randomize_db scheme rng db =
  Db.create ~universe:(Db.universe db)
    (Array.map snd (Ppdm_check.Draw.tagged scheme rng db))

let test_keep_probability () =
  (* the keep probability Σ_j p_j j / m of the posteriors is the
     scheme's expected kept fraction *)
  let r : Randomizer.resolved = { keep_dist = [| 0.2; 0.3; 0.5 |]; rho = 0.1 } in
  let fixed = Randomizer.per_size ~universe:10 ~name:"fixed" (fun _ -> r) in
  Alcotest.(check (float 1e-12)) "weighted mean / m"
    (((0.3 *. 1.) +. (0.5 *. 2.)) /. 2.)
    (Randomizer.expected_kept_fraction fixed ~size:2);
  (* binomial keep dist recovers p_keep *)
  let uniform = Randomizer.uniform ~universe:50 ~p_keep:0.37 ~p_add:0.1 in
  Alcotest.(check (float 1e-9)) "uniform keep prob" 0.37
    (Randomizer.expected_kept_fraction uniform ~size:7);
  Alcotest.(check (float 1e-12)) "empty transaction" 1.
    (Randomizer.expected_kept_fraction uniform ~size:0)

let test_item_posteriors_by_hand () =
  (* q_in = 0.5, rho = 0.1, prior = 0.2:
     present: 0.2*0.5 / (0.2*0.5 + 0.8*0.1) = 0.1/0.18
     absent:  0.2*0.5 / (0.2*0.5 + 0.8*0.9) = 0.1/0.82 *)
  let r : Randomizer.resolved = { keep_dist = [| 0.5; 0.; 1. /. 2. |]; rho = 0.1 } in
  let present, absent = Oracle.item_posteriors r ~prior:0.2 in
  Alcotest.(check (float 1e-12)) "present" (0.1 /. 0.18) present;
  Alcotest.(check (float 1e-12)) "absent" (0.1 /. 0.82) absent;
  Alcotest.(check (float 1e-12)) "worst is max" (0.1 /. 0.18)
    (Breach.worst_item_posterior r ~prior:0.2);
  (* an operator that keeps little: absence is the telling observation *)
  let r : Randomizer.resolved = { keep_dist = [| 0.9; 0.; 0.1 |]; rho = 0.5 } in
  let present, absent = Oracle.item_posteriors r ~prior:0.2 in
  Alcotest.(check bool) "absent dominates" true (absent > present);
  Alcotest.(check (float 1e-12)) "worst is max" absent
    (Breach.worst_item_posterior r ~prior:0.2)

let test_degenerate_priors () =
  let r : Randomizer.resolved = { keep_dist = [| 0.5; 0.5 |]; rho = 0.2 } in
  Alcotest.(check (float 1e-12)) "prior 0 stays 0" 0.
    (Breach.worst_item_posterior r ~prior:0.);
  Alcotest.(check (float 1e-12)) "prior 1 stays 1" 1.
    (Breach.worst_item_posterior r ~prior:1.);
  Alcotest.check_raises "prior out of range" (Invalid_argument "Breach: prior out of [0,1]")
    (fun () -> ignore (Breach.worst_item_posterior r ~prior:1.5))

let test_itemset_posterior_identity () =
  (* identity operator: seeing A in the output proves A was in the input *)
  let r : Randomizer.resolved = { keep_dist = [| 0.; 0.; 1. |]; rho = 0. } in
  let post = Oracle.itemset_posterior r ~partials:[| 0.5; 0.3; 0.2 |] in
  Alcotest.(check (float 1e-12)) "certainty" 1. post

let test_itemset_posterior_uninformative () =
  (* gamma = 1 operator: posterior equals the prior *)
  let rho = 0.25 in
  let dist = Optimizer.keep_dist ~m:3 ~rho ~gamma:1. Optimizer.Max_kept in
  let r : Randomizer.resolved = { keep_dist = dist; rho } in
  let partials = [| 0.4; 0.3; 0.2; 0.1 |] in
  let post = Oracle.itemset_posterior r ~partials in
  Alcotest.(check (float 1e-9)) "posterior = prior" 0.1 post

let test_empirical_matches_analytic () =
  let universe = 80 and size = 6 in
  let rng = Rng.create ~seed:5 () in
  let db = Simple.fixed_size rng ~universe ~size ~count:30_000 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.1 in
  let randomized = randomize_db scheme rng db in
  let r = Randomizer.resolve scheme ~size in
  let prior = float_of_int size /. float_of_int universe in
  let expected_present, expected_absent = Oracle.item_posteriors r ~prior in
  Alcotest.(check (float 1e-12)) "worst is the larger"
    (Float.max expected_present expected_absent)
    (Breach.worst_item_posterior r ~prior);
  (* average the empirical posteriors over a few items to cut noise *)
  let items = [ 0; 7; 19; 33; 54 ] in
  let got_present, got_absent =
    List.fold_left
      (fun (ap, ab) item ->
        let p, a = Breach.empirical_item_posteriors ~original:db ~randomized ~item in
        (ap +. p, ab +. a))
      (0., 0.) items
  in
  let got_present = got_present /. 5. and got_absent = got_absent /. 5. in
  Alcotest.(check bool)
    (Printf.sprintf "present %.4f near %.4f" got_present expected_present)
    true
    (Float.abs (got_present -. expected_present) < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "absent %.4f near %.4f" got_absent expected_absent)
    true
    (Float.abs (got_absent -. expected_absent) < 0.01)

let test_empirical_worst_below_amplification_bound () =
  (* F5 in miniature: a gamma-certified operator never shows an empirical
     posterior above the theorem's ceiling *)
  let universe = 60 and size = 5 in
  let rng = Rng.create ~seed:6 () in
  let db = Simple.fixed_size rng ~universe ~size ~count:10_000 in
  let d = Optimizer.design ~m:size ~gamma:19. Optimizer.Max_kept in
  let scheme =
    Randomizer.select_a_size ~universe ~size ~keep_dist:d.Optimizer.dist
      ~rho:d.Optimizer.rho
  in
  let randomized = randomize_db scheme rng db in
  let prior = float_of_int size /. float_of_int universe in
  let bound = Amplification.posterior_upper_bound ~gamma:d.Optimizer.gamma ~prior in
  let worst = Breach.empirical_worst_item_posterior ~original:db ~randomized in
  (* allow a little sampling noise above the analytic ceiling *)
  Alcotest.(check bool)
    (Printf.sprintf "worst %.4f <= bound %.4f (+noise)" worst bound)
    true
    (worst <= bound +. 0.05)

let test_bernoulli_model_exactness () =
  (* Gen.bernoulli_db IS the independent-item model, so the analytic
     posterior should match the empirical one tightly for a fixed-size
     operator applied to same-size transactions.  Use a two-probability
     profile and condition on the transactions of the operator's size. *)
  let universe = 30 in
  let rng = Rng.create ~seed:9 () in
  let item_probs = Array.make universe 0.2 in
  let db_all = Ppdm_check.Gen.bernoulli_db rng ~item_probs ~count:60_000 in
  (* keep only size-6 transactions so one resolved operator applies *)
  let db =
    Db.create ~universe
      (Array.of_seq
         (Seq.filter
            (fun t -> Itemset.cardinal t = 6)
            (Array.to_seq (Db.transactions db_all))))
  in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.1 in
  let randomized = randomize_db scheme rng db in
  let r = Randomizer.resolve scheme ~size:6 in
  (* conditional prior of an item given |t| = 6 (hypergeometric-free: by
     exchangeability it is 6/30 with all probs equal) *)
  let prior = 6. /. 30. in
  let expected, _ = Oracle.item_posteriors r ~prior in
  let posteriors =
    List.map
      (fun item ->
        fst (Breach.empirical_item_posteriors ~original:db ~randomized ~item))
      [ 0; 7; 14; 21; 29 ]
  in
  let mean = List.fold_left ( +. ) 0. posteriors /. 5. in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.4f near analytic %.4f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.03)

let test_length_mismatch () =
  let a = Db.create ~universe:5 [| Itemset.singleton 0 |] in
  let b = Db.create ~universe:5 [| Itemset.singleton 0; Itemset.singleton 1 |] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Breach.empirical_item_posteriors: database length mismatch")
    (fun () -> ignore (Breach.empirical_item_posteriors ~original:a ~randomized:b ~item:0))

let suite =
  [
    Alcotest.test_case "keep probability" `Quick test_keep_probability;
    Alcotest.test_case "item posteriors by hand" `Quick test_item_posteriors_by_hand;
    Alcotest.test_case "degenerate priors" `Quick test_degenerate_priors;
    Alcotest.test_case "itemset posterior: identity" `Quick test_itemset_posterior_identity;
    Alcotest.test_case "itemset posterior: uninformative" `Quick
      test_itemset_posterior_uninformative;
    Alcotest.test_case "empirical matches analytic" `Slow test_empirical_matches_analytic;
    Alcotest.test_case "empirical worst below bound" `Slow
      test_empirical_worst_below_amplification_bound;
    Alcotest.test_case "bernoulli model exactness" `Slow test_bernoulli_model_exactness;
    Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
  ]
