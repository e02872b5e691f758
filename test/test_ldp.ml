(* LDP-bridge tests: the per-item epsilon of randomized response, its
   operator, and the inverse design (epsilon for a target gamma). *)

open Ppdm
module Oracle = Ppdm_check.Oracle

(* Transaction-level amplification of a uniform operator at a size. *)
let gamma_uniform ?(universe = 100) ~size ~p_keep ~p_add () =
  Amplification.gamma (Randomizer.uniform ~universe ~p_keep ~p_add) ~size

let rr ~universe ~epsilon_per_item =
  let p = Ldp.rr_keep_probability ~epsilon_per_item in
  Randomizer.uniform ~universe ~p_keep:p ~p_add:(1. -. p)

let test_rr_keep_probability () =
  Alcotest.(check (float 1e-12)) "eps 0 is a fair coin" 0.5
    (Ldp.rr_keep_probability ~epsilon_per_item:0.);
  let p = Ldp.rr_keep_probability ~epsilon_per_item:(log 3.) in
  Alcotest.(check (float 1e-12)) "eps ln3 -> 3/4" 0.75 p

let test_rr_is_uniform_operator () =
  let scheme = rr ~universe:100 ~epsilon_per_item:(log 3.) in
  let r = Randomizer.resolve scheme ~size:4 in
  Alcotest.(check (float 1e-12)) "rho = 1 - p" 0.25 r.Randomizer.rho;
  Alcotest.(check (float 1e-9)) "keep prob" 0.75
    (Randomizer.expected_kept_fraction scheme ~size:4)

let test_item_epsilon_of_uniform () =
  (* symmetric RR: both ratios equal e^eps *)
  let eps = Oracle.item_epsilon_of_uniform ~p_keep:0.75 ~p_add:0.25 in
  Alcotest.(check (float 1e-9)) "symmetric" (log 3.) eps;
  Alcotest.(check (float 0.)) "deterministic bit" infinity
    (Oracle.item_epsilon_of_uniform ~p_keep:1. ~p_add:0.25);
  Alcotest.(check (float 1e-12)) "identical channels leak nothing" 0.
    (Oracle.item_epsilon_of_uniform ~p_keep:0.3 ~p_add:0.3)

let test_gamma_uniform_vs_amplification () =
  (* amplification depends on the per-size operator only, so the
     3-size universe the RR design assumes gives the same gamma *)
  Alcotest.(check (float 1e-9)) "agrees with Amplification"
    (gamma_uniform ~size:3 ~p_keep:0.7 ~p_add:0.1 ())
    (gamma_uniform ~universe:9 ~size:3 ~p_keep:0.7 ~p_add:0.1 ())

let test_rr_epsilon_for_gamma () =
  List.iter
    (fun (size, gamma) ->
      let eps = Ldp.rr_epsilon_for_gamma ~size ~gamma in
      let p = Ldp.rr_keep_probability ~epsilon_per_item:eps in
      let realized = gamma_uniform ~size ~p_keep:p ~p_add:(1. -. p) () in
      Alcotest.(check bool)
        (Printf.sprintf "size %d: realized %.4f near target %.4f" size realized gamma)
        true
        (Float.abs (realized -. gamma) /. gamma < 1e-6))
    [ (1, 4.); (3, 19.); (5, 19.); (8, 49.) ]

let test_rr_transaction_gamma_grows_with_size () =
  (* Transaction-level amplification composes over bits, so it must grow
     with the transaction size at fixed per-item epsilon. *)
  let p = Ldp.rr_keep_probability ~epsilon_per_item:1. in
  let g size = gamma_uniform ~size ~p_keep:p ~p_add:(1. -. p) () in
  Alcotest.(check bool) "monotone" true (g 1 < g 2 && g 2 < g 4 && g 4 < g 8)

let test_rr_estimation_end_to_end () =
  (* RR plugs into the standard estimator unchanged. *)
  let open Ppdm_prng in
  let open Ppdm_data in
  let universe = 100 and size = 5 and count = 20_000 in
  let rng = Rng.create ~seed:11 () in
  let itemset = Itemset.of_list [ 2; 8 ] in
  let db =
    Ppdm_datagen.Simple.planted rng ~universe ~size ~count ~itemset ~support:0.3
  in
  let eps = Ldp.rr_epsilon_for_gamma ~size ~gamma:19. in
  let scheme = rr ~universe ~epsilon_per_item:eps in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  let e = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 5 sigma (%.4f) of 0.3"
       e.Estimator.support e.Estimator.sigma)
    true
    (Float.abs (e.Estimator.support -. 0.3) < 5. *. e.Estimator.sigma)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rr keep probability is in (1/2, 1)" ~count:200
      (float_range 0.001 10.) (fun eps ->
        let p = Ldp.rr_keep_probability ~epsilon_per_item:eps in
        p > 0.5 && p < 1.);
    Test.make ~name:"per-item epsilon of RR is its budget" ~count:200
      (float_range 0.01 8.) (fun eps ->
        let p = Ldp.rr_keep_probability ~epsilon_per_item:eps in
        let back = Oracle.item_epsilon_of_uniform ~p_keep:p ~p_add:(1. -. p) in
        Float.abs (back -. eps) < 1e-9);
    Test.make ~name:"gamma_uniform >= per-item gamma" ~count:100
      (pair (int_range 1 8) (float_range 0.1 4.)) (fun (size, eps) ->
        let p = Ldp.rr_keep_probability ~epsilon_per_item:eps in
        gamma_uniform ~size ~p_keep:p ~p_add:(1. -. p) () >= exp eps -. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "rr keep probability" `Quick test_rr_keep_probability;
    Alcotest.test_case "rr is a uniform operator" `Quick test_rr_is_uniform_operator;
    Alcotest.test_case "item epsilon of uniform" `Quick test_item_epsilon_of_uniform;
    Alcotest.test_case "gamma_uniform agreement" `Quick test_gamma_uniform_vs_amplification;
    Alcotest.test_case "epsilon for target gamma" `Quick test_rr_epsilon_for_gamma;
    Alcotest.test_case "gamma grows with size" `Quick test_rr_transaction_gamma_grows_with_size;
    Alcotest.test_case "rr end-to-end estimation" `Slow test_rr_estimation_end_to_end;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
