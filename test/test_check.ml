(* The verification harness, verified: the acceptance differential suite
   (all four miners, jobs 1/2/4, hundreds of generated databases), the
   statistical assertions, the fault-injection scenarios, and meta-tests
   of the property runner itself (replay, shrinking, reporting). *)

open Ppdm_data
open Ppdm
open Ppdm_check
open Ppdm_runtime

(* ------------------------------------------------- property runner meta *)

let failing_check ~seed =
  Property.check ~seed ~count:50 ~name:"x < 50"
    (Gen.int_range 0 1000)
    (fun x -> x < 50)

let test_replay_deterministic () =
  let r1 = failing_check ~seed:123 and r2 = failing_check ~seed:123 in
  match (r1.Property.failure, r2.Property.failure) with
  | Some f1, Some f2 ->
      Alcotest.(check int) "same failing case" f1.Property.case f2.Property.case;
      Alcotest.(check string) "same counterexample" f1.Property.counterexample
        f2.Property.counterexample;
      Alcotest.(check int) "seed recorded" 123 f1.Property.seed
  | _ -> Alcotest.fail "a property false on 95% of inputs did not fail"

let test_shrink_to_boundary () =
  (* greedy shrinking must walk x all the way down to the smallest
     failing input *)
  match (failing_check ~seed:7).Property.failure with
  | Some f ->
      Alcotest.(check string) "minimal counterexample" "50"
        f.Property.counterexample
  | None -> Alcotest.fail "expected a failure"

let test_different_seeds_differ () =
  (* not a strict guarantee, but with 50 draws from [0,1000] two seeds
     colliding on the whole sequence would indicate a broken derive *)
  let cases seed =
    let collected = ref [] in
    ignore
      (Property.check ~seed ~count:10 ~name:"collect"
         (Gen.int_range 0 1_000_000)
         (fun x ->
           collected := x :: !collected;
           true));
    !collected
  in
  Alcotest.(check bool) "seed changes the sequence" false
    (cases 1 = cases 2)

let test_passing_report () =
  let r =
    Property.check ~seed:5 ~count:20 ~name:"tautology" Gen.bool (fun _ -> true)
  in
  Alcotest.(check bool) "no failure" true (r.Property.failure = None);
  Alcotest.(check int) "all cases ran" 20 r.Property.cases;
  Alcotest.check_raises "assert_ok raises on failure"
    (Property.Failed (Property.describe (failing_check ~seed:123)))
    (fun () -> Property.assert_ok (failing_check ~seed:123))

let test_exception_is_failure () =
  let r =
    Property.check ~seed:3 ~count:10 ~name:"raises"
      (Gen.int_range 0 9)
      (fun _ -> failwith "boom")
  in
  match r.Property.failure with
  | Some f ->
      Alcotest.(check bool) "message mentions the exception" true
        (String.length f.Property.message > 0)
  | None -> Alcotest.fail "an exception must be a failure"

(* ------------------------------------------------------ statistical meta *)

let test_stat_helpers () =
  let obs = [| 100; 100; 100; 100 |] in
  let exact = [| 100.; 100.; 100.; 100. |] in
  Alcotest.(check (float 1e-9)) "perfect fit" 1.0
    (Stat.chi_square_fit ~observed:obs ~expected:exact);
  let wrong = [| 250.; 150.; 250.; 350. |] in
  Alcotest.(check bool) "gross misfit rejected" true
    (Stat.chi_square_fit ~observed:obs ~expected:wrong < 0.001);
  (* tiny-expectation buckets pool away; with fewer than two cells left
     there is no test and the fit is vacuously accepted *)
  Alcotest.(check (float 1e-9)) "untestable fit is vacuous" 1.0
    (Stat.chi_square_fit ~observed:obs
       ~expected:[| 400.; 0.0001; 0.0001; 0.0001 |]);
  (* the erfc approximation is only good to ~1.3e-7 *)
  Alcotest.(check (float 1e-6)) "z = 0" 1.0 (Stat.z_pvalue 0.);
  Alcotest.(check bool) "z = 6 rejected" true (Stat.z_pvalue 6. < 1e-6);
  Alcotest.(check bool) "erfc decreasing" true
    (Stat.erfc 2. < Stat.erfc 1. && Stat.erfc 1. < Stat.erfc 0.);
  Alcotest.check_raises "dof validated"
    (Invalid_argument "Stat.chi_square_pvalue: dof must be positive")
    (fun () -> ignore (Stat.chi_square_pvalue ~dof:0 1.))

(* ---------------------------------------------- acceptance: differential *)

let test_differential_suite () =
  (* >= 200 generated databases; byte-identical canonical output across
     apriori, eclat, fp-growth, brute force, and the parallel drivers at
     jobs 1, 2, and 4 *)
  let count = max 200 (Property.default_count ()) in
  let pools = List.map (fun jobs -> Pool.create ~jobs) [ 1; 2; 4 ] in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown pools)
    (fun () ->
      let miners =
        (( "brute-force",
           fun db ~min_support ->
             Oracle.brute_force_frequent ~max_size:4 db ~min_support )
        :: Oracle.sequential_miners ~max_size:4 ())
        @ List.concat_map (Oracle.parallel_miners ~max_size:4) pools
      in
      Property.assert_ok
        (Property.check_result ~count ~name:"all miners agree"
           (Gen.pair
              (Gen.db ~max_universe:10 ~max_transactions:40 ())
              Gen.min_support)
           (fun (db, min_support) -> Oracle.agree ~miners db ~min_support)))

let test_metamorphic_permutation () =
  Property.assert_ok
    (Property.check_result ~name:"permutation relabels"
       (Gen.pair
          (Gen.pair (Gen.db ~max_universe:8 ~max_transactions:30 ()) Gen.min_support)
          (Gen.int_range 0 1_000_000))
       (fun ((db, min_support), key) ->
         let rng = Ppdm_prng.Rng.create ~seed:key () in
         let perm =
           Gen.generate (Gen.permutation ~n:(Db.universe db)) rng
             ~size:(Db.universe db)
         in
         let pad = 1 + Ppdm_prng.Rng.int rng 3 in
         let rec go = function
           | [] -> Ok ()
           | m :: rest -> (
               match Oracle.permutation_relabels m db ~min_support ~perm with
               | Error _ as e -> e
               | Ok () -> (
                   match Oracle.padding_noop m db ~min_support ~pad with
                   | Error _ as e -> e
                   | Ok () -> go rest))
         in
         go (Oracle.sequential_miners ~max_size:4 ())))

let test_statistical_transition () =
  let rng = Ppdm_prng.Rng.create ~seed:2718 () in
  let scheme = Randomizer.uniform ~universe:12 ~p_keep:0.7 ~p_add:0.1 in
  List.iter
    (fun l ->
      let p = Stat.transition_pvalue ~scheme ~size:4 ~k:2 ~l rng in
      Alcotest.(check bool)
        (Printf.sprintf "transition column holds at l=%d (p=%g)" l p)
        true (p >= 0.001))
    [ 0; 1; 2 ]

let test_statistical_amplification () =
  let rng = Ppdm_prng.Rng.create ~seed:577 () in
  let scheme = Randomizer.uniform ~universe:9 ~p_keep:0.6 ~p_add:0.2 in
  match Stat.amplification_check ~scheme ~size:3 rng with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_statistical_estimator_bias () =
  let rng = Ppdm_prng.Rng.create ~seed:31415 () in
  let scheme = Randomizer.uniform ~universe:8 ~p_keep:0.8 ~p_add:0.1 in
  let db =
    Db.create ~universe:8
      (Array.init 40 (fun i ->
           if i mod 2 = 0 then Itemset.of_list [ 0; 1; 3 ]
           else Itemset.of_list [ 1; 2 ]))
  in
  let p =
    Stat.estimator_bias_pvalue ~scheme ~db ~itemset:(Itemset.of_list [ 0; 1 ])
      rng
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimator unbiased (p=%g)" p)
    true (p >= 0.001)

(* ------------------------------------------------- acceptance: faults *)

let fault_case name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with Ok () -> () | Error m -> Alcotest.fail m)

(* ------------------------------------------------- acceptance: selftest *)

let test_selftest_clean () =
  let r = Selftest.run ~count:10 () in
  List.iter
    (fun o ->
      if not o.Selftest.ok then
        Alcotest.failf "selftest check %S failed:\n%s" o.Selftest.name
          o.Selftest.detail)
    r.Selftest.outcomes;
  Alcotest.(check bool) "report clean" true (Selftest.ok r)

let suite =
  [
    Alcotest.test_case "failures replay deterministically" `Quick
      test_replay_deterministic;
    Alcotest.test_case "shrinking reaches the boundary" `Quick
      test_shrink_to_boundary;
    Alcotest.test_case "seeds change the input sequence" `Quick
      test_different_seeds_differ;
    Alcotest.test_case "reports and assert_ok" `Quick test_passing_report;
    Alcotest.test_case "exceptions count as failures" `Quick
      test_exception_is_failure;
    Alcotest.test_case "statistical helpers" `Quick test_stat_helpers;
    Alcotest.test_case "differential: miners agree at jobs 1/2/4" `Quick
      test_differential_suite;
    Alcotest.test_case "metamorphic: permutation and padding" `Quick
      test_metamorphic_permutation;
    Alcotest.test_case "statistical: transition matrix" `Quick
      test_statistical_transition;
    Alcotest.test_case "statistical: amplification bound" `Quick
      test_statistical_amplification;
    Alcotest.test_case "statistical: estimator bias" `Quick
      test_statistical_estimator_bias;
    fault_case "fault: pool error propagates" (fun () ->
        Fault.pool_error_propagates ~jobs:4 ~k:3 ~n:16);
    fault_case "fault: first task of a sequential pool" (fun () ->
        Fault.pool_error_propagates ~jobs:1 ~k:0 ~n:4);
    fault_case "fault: last task" (fun () ->
        Fault.pool_error_propagates ~jobs:2 ~k:7 ~n:8);
    fault_case "fault: map_reduce yields nothing partial" (fun () ->
        Fault.map_reduce_fault_no_partial ~jobs:2);
    fault_case "fault: truncated read rejected" Fault.io_truncated_read_rejected;
    fault_case "fault: truncated header rejected"
      Fault.io_truncated_header_rejected;
    fault_case "fault: FIMI truncation is silent"
      Fault.io_fimi_truncation_is_silent;
    Alcotest.test_case "selftest is clean" `Quick test_selftest_clean;
  ]
