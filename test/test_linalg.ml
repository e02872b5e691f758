(* Tests for the dense linear-algebra substrate: matrix algebra, LU
   solve/inverse invariants (property-tested on diagonally dominant random
   matrices), and the log-space combinatorics. *)

open Ppdm_linalg

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_mat_basics () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  checkf "get" 3. (Mat.get m 1 0);
  let t = Mat.transpose m in
  checkf "transpose" 2. (Mat.get t 1 0);
  let id = Mat.identity 2 in
  checkf "mul by identity" 0. (Mat.max_abs_diff m (Mat.mul m id));
  let v = Mat.mul_vec m [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 3.; 7. |] v;
  Alcotest.(check (array (float 1e-12))) "col" [| 2.; 4. |] (Mat.col m 1);
  Alcotest.(check (array (float 1e-12))) "row" [| 3.; 4. |] (Mat.row m 1)

let test_mat_product () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let b = Mat.of_arrays [| [| 7.; 8. |]; [| 9.; 10. |]; [| 11.; 12. |] |] in
  let c = Mat.mul a b in
  checkf "c00" 58. (Mat.get c 0 0);
  checkf "c01" 64. (Mat.get c 0 1);
  checkf "c10" 139. (Mat.get c 1 0);
  checkf "c11" 154. (Mat.get c 1 1)

let test_outer_diag () =
  let o = Mat.outer [| 1.; 2. |] [| 3.; 4. |] in
  checkf "outer" 8. (Mat.get o 1 1);
  let d = Mat.diag [| 5.; 6. |] in
  checkf "diag on" 6. (Mat.get d 1 1);
  checkf "diag off" 0. (Mat.get d 0 1)

let test_lu_solve_known () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Lu.solve (Lu.decompose a) [| 5.; 10. |] in
  Alcotest.(check (array (float 1e-9))) "solution" [| 1.; 3. |] x

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  checkf "det" 5. (Lu.det (Lu.decompose a));
  (* permutation sign: swap rows -> negative determinant *)
  let b = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  checkf "det of swap" (-1.) (Lu.det (Lu.decompose b))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular raises" Lu.Singular (fun () ->
      ignore (Lu.decompose a))

let test_lu_inverse () =
  let a = Mat.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Lu.inverse (Lu.decompose a) in
  let prod = Mat.mul a inv in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Mat.max_abs_diff prod (Mat.identity 2) < 1e-12)

let test_cond () =
  let id = Mat.identity 3 in
  checkf "identity condition" 1. (Lu.cond_inf_estimate id);
  let bad =
    Mat.of_arrays [| [| 1.; 0.999 |]; [| 0.999; 1. |] |]
  in
  Alcotest.(check bool) "near-singular has huge condition" true
    (Lu.cond_inf_estimate bad > 100.)

(* Random diagonally dominant matrices are well-conditioned enough for
   tight residual checks. *)
let dominant_matrix_gen =
  let open QCheck.Gen in
  sized_size (int_range 1 8) (fun n ->
      let* entries =
        array_size (return (n * n)) (float_range (-1.) 1.)
      in
      let m =
        Mat.init ~rows:n ~cols:n (fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. (2. *. float_of_int n) else v)
      in
      return m)

let arbitrary_dominant =
  QCheck.make ~print:(fun m -> Format.asprintf "%a" Mat.pp m) dominant_matrix_gen

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"LU solve residual is tiny" ~count:200 arbitrary_dominant
      (fun m ->
        let n = Mat.rows m in
        let b = Array.init n (fun i -> float_of_int ((i * 7 mod 5) - 2)) in
        let x = Lu.solve (Lu.decompose m) b in
        Array.for_all2
          (fun ax bi -> Float.abs (ax -. bi) < 1e-9)
          (Mat.mul_vec m x) b);
    Test.make ~name:"LU inverse gives identity both sides" ~count:100
      arbitrary_dominant (fun m ->
        let inv = Lu.inverse (Lu.decompose m) in
        let n = Mat.rows m in
        Mat.max_abs_diff (Mat.mul m inv) (Mat.identity n) < 1e-9
        && Mat.max_abs_diff (Mat.mul inv m) (Mat.identity n) < 1e-9);
    Test.make ~name:"det of product = product of dets" ~count:100
      (pair arbitrary_dominant arbitrary_dominant) (fun (a, b) ->
        let n = min (Mat.rows a) (Mat.rows b) in
        let trim m = Mat.init ~rows:n ~cols:n (fun i j -> Mat.get m i j) in
        let a = trim a and b = trim b in
        let da = Lu.det (Lu.decompose a) and db = Lu.det (Lu.decompose b) in
        let dab = Lu.det (Lu.decompose (Mat.mul a b)) in
        Float.abs (dab -. (da *. db)) < 1e-6 *. Float.max 1. (Float.abs (da *. db)));
    Test.make ~name:"binomial pmf sums to one" ~count:100
      (pair (int_range 0 40) (float_range 0.01 0.99)) (fun (n, p) ->
        let total = ref 0. in
        for k = 0 to n do
          total := !total +. Binomial.binomial_pmf ~n ~p k
        done;
        feq ~eps:1e-9 !total 1.);
    Test.make ~name:"hypergeometric pmf sums to one" ~count:100
      (triple (int_range 1 30) (int_range 0 30) (int_range 0 30))
      (fun (total, good, draws) ->
        QCheck.assume (good <= total && draws <= total);
        let acc = ref 0. in
        for q = 0 to draws do
          acc := !acc +. Binomial.hypergeom_pmf ~total ~good ~draws q
        done;
        feq ~eps:1e-9 !acc 1.);
    Test.make ~name:"choose symmetry" ~count:200
      (pair (int_range 0 50) (int_range 0 50)) (fun (n, k) ->
        QCheck.assume (k <= n);
        feq ~eps:(1e-9 *. Binomial.choose n k)
          (Binomial.choose n k)
          (Binomial.choose n (n - k)));
    Test.make ~name:"Pascal rule" ~count:200
      (pair (int_range 1 40) (int_range 1 40)) (fun (n, k) ->
        QCheck.assume (k <= n - 1);
        let lhs = Binomial.choose n k in
        let rhs = Binomial.choose (n - 1) k +. Binomial.choose (n - 1) (k - 1) in
        feq ~eps:(1e-9 *. lhs) lhs rhs);
  ]

let test_binomial_exact () =
  checkf "C(5,2)" 10. (Binomial.choose 5 2);
  checkf "C(10,0)" 1. (Binomial.choose 10 0);
  checkf "C(10,10)" 1. (Binomial.choose 10 10);
  checkf "C(4,7) out of range" 0. (Binomial.choose 4 7);
  checkf "C(n,-1)" 0. (Binomial.choose 4 (-1));
  Alcotest.(check bool) "C(52,5)" true (feq ~eps:1. (Binomial.choose 52 5) 2_598_960.);
  checkf "log_factorial 0" 0. (Binomial.log_factorial 0);
  Alcotest.(check bool) "log_factorial 10" true
    (feq ~eps:1e-9 (Binomial.log_factorial 10) (log 3628800.))

let test_binomial_pmf_values () =
  Alcotest.(check bool) "pmf(2;4,0.5)" true
    (feq (Binomial.binomial_pmf ~n:4 ~p:0.5 2) 0.375);
  checkf "pmf p=0 at 0" 1. (Binomial.binomial_pmf ~n:4 ~p:0. 0);
  checkf "pmf p=1 at n" 1. (Binomial.binomial_pmf ~n:4 ~p:1. 4);
  checkf "pmf out of range" 0. (Binomial.binomial_pmf ~n:4 ~p:0.5 5)

let test_hypergeom_values () =
  (* Drawing 2 from 5 with 3 good: P(2 good) = C(3,2)C(2,0)/C(5,2) = 0.3 *)
  Alcotest.(check bool) "hyp(2;5,3,2)" true
    (feq (Binomial.hypergeom_pmf ~total:5 ~good:3 ~draws:2 2) 0.3);
  checkf "impossible draw" 0. (Binomial.hypergeom_pmf ~total:5 ~good:3 ~draws:2 3)

let test_stats () =
  checkf "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  checkf "variance" 1. (Stats.variance [| 1.; 2.; 3. |]);
  checkf "std" 1. (Stats.std [| 1.; 2.; 3. |]);
  checkf "covariance of identical" 1. (Stats.covariance [| 1.; 2.; 3. |] [| 1.; 2.; 3. |]);
  checkf "quantile median" 2. (Stats.quantile [| 3.; 1.; 2. |] 0.5);
  checkf "quantile max" 3. (Stats.quantile [| 3.; 1.; 2. |] 1.);
  checkf "rmse" 0. (Stats.rmse [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "rmse positive" true (Stats.rmse [| 1. |] [| 3. |] = 2.);
  checkf "chi2 uniform exact" 0. (Stats.chi_square_uniform [| 5; 5; 5; 5 |])

let test_normal_quantile () =
  let cases =
    [ (0.5, 0.); (0.975, 1.959964); (0.025, -1.959964); (0.999, 3.090232);
      (0.001, -3.090232); (0.8413447, 0.99999936) ]
  in
  List.iter
    (fun (p, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "q(%g) = %.6f" p expected)
        true
        (Float.abs (Stats.normal_quantile p -. expected) < 1e-4))
    cases;
  (* symmetry and monotonicity *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "symmetry" true
        (Float.abs (Stats.normal_quantile p +. Stats.normal_quantile (1. -. p)) < 1e-8))
    [ 0.01; 0.1; 0.3; 0.49 ];
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.normal_quantile: argument must be in (0,1)")
    (fun () -> ignore (Stats.normal_quantile 0.))

let suite =
  [
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "matrix basics" `Quick test_mat_basics;
    Alcotest.test_case "matrix product" `Quick test_mat_product;
    Alcotest.test_case "outer and diag" `Quick test_outer_diag;
    Alcotest.test_case "LU solve known system" `Quick test_lu_solve_known;
    Alcotest.test_case "LU determinant" `Quick test_lu_det;
    Alcotest.test_case "LU singular detection" `Quick test_lu_singular;
    Alcotest.test_case "LU inverse" `Quick test_lu_inverse;
    Alcotest.test_case "condition estimate" `Quick test_cond;
    Alcotest.test_case "binomial exact values" `Quick test_binomial_exact;
    Alcotest.test_case "binomial pmf values" `Quick test_binomial_pmf_values;
    Alcotest.test_case "hypergeometric values" `Quick test_hypergeom_values;
    Alcotest.test_case "summary statistics" `Quick test_stats;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
