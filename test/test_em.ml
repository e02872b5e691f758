(* EM reconstruction tests: feasibility (simplex output), agreement with
   the inversion estimator where both are reliable, monotone likelihood,
   and behaviour where the inversion estimator goes infeasible. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm

let setup ~seed ~count =
  let universe = 100 and size = 5 in
  let rng = Rng.create ~seed () in
  let itemset = Itemset.of_list [ 2; 7 ] in
  let db = Simple.planted rng ~universe ~size ~count ~itemset ~support:0.15 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.05 in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  (scheme, itemset, db, data)

let check_simplex partials =
  Array.iter
    (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.))
    partials;
  Alcotest.(check bool) "sums to one" true
    (Float.abs (Array.fold_left ( +. ) 0. partials -. 1.) < 1e-6)

let test_simplex_output () =
  let scheme, itemset, _, data = setup ~seed:1 ~count:4000 in
  let e = Em.estimate ~scheme ~data ~itemset () in
  check_simplex e.Em.partials;
  Alcotest.(check bool) "support in [0,1]" true
    (e.Em.support >= 0. && e.Em.support <= 1.)

let test_agrees_with_inversion () =
  (* plenty of data and a well-conditioned operator: both estimators land
     on (nearly) the same answer *)
  let scheme, itemset, db, data = setup ~seed:2 ~count:30_000 in
  let inv = Estimator.estimate ~scheme ~data ~itemset in
  let em = Em.estimate ~scheme ~data ~itemset () in
  Alcotest.(check bool)
    (Printf.sprintf "em %.4f ~ inversion %.4f (sigma %.4f)" em.Em.support
       inv.Estimator.support inv.Estimator.sigma)
    true
    (Float.abs (em.Em.support -. inv.Estimator.support)
    < Float.max (2. *. inv.Estimator.sigma) 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "em %.4f near truth %.4f" em.Em.support
       (Db.support db itemset))
    true
    (Float.abs (em.Em.support -. Db.support db itemset) < 0.03)

let test_feasible_when_inversion_is_not () =
  (* tiny sample: inversion estimates often leave [0,1]; EM never does.
     Scan seeds until inversion goes negative to make the contrast real. *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 100 do
    incr seed;
    let scheme, itemset, _, data = setup ~seed:!seed ~count:60 in
    let inv = Estimator.estimate ~scheme ~data ~itemset in
    if Array.exists (fun v -> v < -1e-9) inv.Estimator.partials then begin
      found := true;
      let em = Em.estimate ~scheme ~data ~itemset () in
      check_simplex em.Em.partials
    end
  done;
  Alcotest.(check bool) "found an infeasible inversion case" true !found

let test_identity_exact () =
  let universe = 50 in
  let rng = Rng.create ~seed:3 () in
  let itemset = Itemset.of_list [ 1; 2 ] in
  let db = Simple.planted rng ~universe ~size:5 ~count:800 ~itemset ~support:0.25 in
  let scheme = Randomizer.uniform ~universe ~p_keep:1. ~p_add:0. in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  let e = Em.estimate ~scheme ~data ~itemset () in
  Alcotest.(check bool)
    (Printf.sprintf "em support %.6f = 0.25" e.Em.support)
    true
    (Float.abs (e.Em.support -. 0.25) < 1e-6)

let test_convergence_metadata () =
  let scheme, itemset, _, data = setup ~seed:4 ~count:2000 in
  let e = Em.estimate ~scheme ~data ~itemset () in
  Alcotest.(check bool) "iterated at least once" true (e.Em.iterations >= 1);
  Alcotest.(check bool) "log-likelihood finite" true
    (Float.is_finite e.Em.log_likelihood);
  (* a tighter tolerance cannot decrease the likelihood *)
  let loose = Em.estimate ~tolerance:1e-2 ~scheme ~data ~itemset () in
  Alcotest.(check bool)
    (Printf.sprintf "ll %.3f >= %.3f" e.Em.log_likelihood loose.Em.log_likelihood)
    true
    (e.Em.log_likelihood >= loose.Em.log_likelihood -. 1e-6)

let test_empty_rejected () =
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:1. ~p_add:0. in
  Alcotest.check_raises "empty" (Invalid_argument "Em.estimate: empty data")
    (fun () ->
      ignore (Em.estimate ~scheme ~data:[||] ~itemset:(Itemset.singleton 0) ()))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"EM output is always a simplex point" ~count:40
      (pair small_int (int_range 50 2000)) (fun (seed, count) ->
        let scheme, itemset, _, data = setup ~seed ~count in
        let e = Em.estimate ~scheme ~data ~itemset () in
        Array.for_all (fun v -> v >= 0.) e.Em.partials
        && Float.abs (Array.fold_left ( +. ) 0. e.Em.partials -. 1.) < 1e-6);
  ]

let suite =
  [
    Alcotest.test_case "simplex output" `Quick test_simplex_output;
    Alcotest.test_case "agrees with inversion" `Slow test_agrees_with_inversion;
    Alcotest.test_case "feasible when inversion is not" `Quick
      test_feasible_when_inversion_is_not;
    Alcotest.test_case "identity exact" `Quick test_identity_exact;
    Alcotest.test_case "convergence metadata" `Quick test_convergence_metadata;
    Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
