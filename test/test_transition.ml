(* Transition-matrix tests: stochasticity, hand-checked small cases, and
   Monte-Carlo agreement of P(l' | l) with simulation. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_linalg
open Ppdm

let sas ~universe ~size ~keep_dist ~rho =
  Randomizer.resolve
    (Randomizer.select_a_size ~universe ~size ~keep_dist ~rho)
    ~size

let test_column_stochastic () =
  let cases =
    [
      sas ~universe:100 ~size:5 ~keep_dist:[| 0.1; 0.1; 0.2; 0.2; 0.2; 0.2 |] ~rho:0.07;
      Randomizer.resolve (Randomizer.cut_and_paste ~universe:100 ~cutoff:3 ~rho:0.2) ~size:8;
      Randomizer.resolve (Randomizer.uniform ~universe:100 ~p_keep:0.6 ~p_add:0.01) ~size:6;
    ]
  in
  List.iter
    (fun r ->
      for k = 0 to 4 do
        let m = Transition.rect_matrix r ~k in
        Alcotest.(check bool)
          (Printf.sprintf "stochastic k=%d" k)
          true
          (Transition.is_column_stochastic m)
      done)
    cases

let test_k_zero () =
  let r = sas ~universe:50 ~size:3 ~keep_dist:[| 0.25; 0.25; 0.25; 0.25 |] ~rho:0.1 in
  let m = Transition.matrix r ~k:0 in
  Alcotest.(check int) "1x1" 1 (Mat.rows m);
  Alcotest.(check (float 1e-12)) "trivial" 1. (Mat.get m 0 0)

let test_identity_operator_matrix () =
  (* keep everything, add nothing: P is the identity *)
  let r = sas ~universe:50 ~size:4 ~keep_dist:[| 0.; 0.; 0.; 0.; 1. |] ~rho:0. in
  let p = Transition.matrix r ~k:3 in
  Alcotest.(check bool) "identity" true (Mat.max_abs_diff p (Mat.identity 4) < 1e-12)

let test_k1_hand_case () =
  (* k = 1: P = [[1-rho, 1-q],[rho, q]] with q the keep probability *)
  let keep_dist = [| 0.2; 0.3; 0.5 |] and rho = 0.15 in
  let r = sas ~universe:50 ~size:2 ~keep_dist ~rho in
  let q = Breach.keep_probability r in
  Alcotest.(check (float 1e-12)) "q by hand" ((0.3 *. 0.5) +. (0.5 *. 1.)) q;
  let p = Transition.matrix r ~k:1 in
  Alcotest.(check (float 1e-12)) "P(0|0)" (1. -. rho) (Mat.get p 0 0);
  Alcotest.(check (float 1e-12)) "P(1|0)" rho (Mat.get p 1 0);
  Alcotest.(check (float 1e-12)) "P(0|1)" (1. -. q) (Mat.get p 0 1);
  Alcotest.(check (float 1e-12)) "P(1|1)" q (Mat.get p 1 1)

let test_rect_matrix_shape () =
  let r = sas ~universe:50 ~size:2 ~keep_dist:[| 0.3; 0.3; 0.4 |] ~rho:0.1 in
  let m = Transition.rect_matrix r ~k:4 in
  Alcotest.(check int) "rows" 5 (Mat.rows m);
  Alcotest.(check int) "cols = min(k,m)+1" 3 (Mat.cols m);
  Alcotest.(check bool) "columns still stochastic" true
    (Transition.is_column_stochastic m);
  Alcotest.check_raises "square matrix refuses k > m"
    (Invalid_argument "Transition.matrix: itemset larger than transaction size")
    (fun () -> ignore (Transition.matrix r ~k:4))

let test_monte_carlo_agreement () =
  let universe = 40 and size = 6 and rho = 0.12 in
  let keep_dist = [| 0.05; 0.1; 0.15; 0.2; 0.2; 0.15; 0.15 |] in
  let scheme = Randomizer.select_a_size ~universe ~size ~keep_dist ~rho in
  let r = Randomizer.resolve scheme ~size in
  let k = 3 in
  let p = Transition.matrix r ~k in
  let itemset = Itemset.of_list [ 0; 1; 2 ] in
  let rng = Rng.create ~seed:17 () in
  (* for each true intersection level l, build matching transactions *)
  for l = 0 to k do
    let base = Array.init l Fun.id in
    let rest = Array.init (size - l) (fun i -> 10 + i) in
    let tx = Itemset.of_array (Array.append base rest) in
    Alcotest.(check int) "intersection is l" l (Itemset.inter_size itemset tx);
    let trials = 40_000 in
    let counts = Array.make (k + 1) 0 in
    for _ = 1 to trials do
      let y = Randomizer.apply scheme rng tx in
      let l' = Itemset.inter_size itemset y in
      counts.(l') <- counts.(l') + 1
    done;
    for l' = 0 to k do
      let expected = Mat.get p l' l in
      let got = float_of_int counts.(l') /. float_of_int trials in
      let slack = 4. *. sqrt ((expected +. 1e-4) /. float_of_int trials) +. 1e-3 in
      Alcotest.(check bool)
        (Printf.sprintf "P(%d|%d): %.4f near %.4f" l' l got expected)
        true
        (Float.abs (got -. expected) < slack)
    done
  done

let qcheck_tests =
  let open QCheck in
  let arb_operator =
    let gen =
      Gen.(
        let* m = int_range 1 8 in
        let* rho = float_range 0.01 0.6 in
        let* raw = array_size (return (m + 1)) (float_range 0.01 1.) in
        let total = Array.fold_left ( +. ) 0. raw in
        let keep_dist = Array.map (fun x -> x /. total) raw in
        return
          ( m,
            sas ~universe:60 ~size:m ~keep_dist ~rho ))
    in
    make ~print:(fun (m, _) -> Printf.sprintf "m=%d" m) gen
  in
  [
    Test.make ~name:"matrices are column-stochastic for random operators"
      ~count:200
      (pair arb_operator (int_range 0 8)) (fun ((m, r), k) ->
        QCheck.assume (k <= m);
        Transition.is_column_stochastic (Transition.matrix r ~k));
    Test.make ~name:"rect matrices are column-stochastic" ~count:200
      (pair arb_operator (int_range 0 12)) (fun ((_, r), k) ->
        Transition.is_column_stochastic (Transition.rect_matrix r ~k));
    Test.make ~name:"probability consistency with matrix entries" ~count:100
      arb_operator (fun (m, r) ->
        let k = min m 3 in
        let p = Transition.matrix r ~k in
        let ok = ref true in
        for l = 0 to k do
          for l' = 0 to k do
            (* the basis adds the direct form's products in its order *)
            if
              Mat.get p l' l
              <> Ppdm_check.Oracle.transition_probability r ~k ~l ~l'
            then ok := false
          done
        done;
        !ok);
  ]

let suite =
  [
    Alcotest.test_case "column stochastic" `Quick test_column_stochastic;
    Alcotest.test_case "k = 0" `Quick test_k_zero;
    Alcotest.test_case "identity operator" `Quick test_identity_operator_matrix;
    Alcotest.test_case "k = 1 hand case" `Quick test_k1_hand_case;
    Alcotest.test_case "rectangular shape" `Quick test_rect_matrix_shape;
    Alcotest.test_case "Monte-Carlo agreement" `Slow test_monte_carlo_agreement;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
