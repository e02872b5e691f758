(* Tests for the dense linear-algebra substrate: matrix algebra, LU
   solve/inverse invariants (property-tested on diagonally dominant random
   matrices), and the log-space combinatorics. *)

open Ppdm_linalg

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let binom n k = exp (Binomial.log_choose n k)

let of_rows rows =
  Mat.init ~rows:(Array.length rows) ~cols:(Array.length rows.(0)) (fun i j ->
      rows.(i).(j))

let test_mat_basics () =
  let m = of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  checkf "get" 3. (Mat.get m 1 0);
  let t = Mat.transpose m in
  checkf "transpose" 2. (Mat.get t 1 0);
  let id = Ppdm_check.Oracle.identity 2 in
  checkf "mul by identity" 0. (Mat.max_abs_diff m (Mat.mul m id));
  let v = Mat.mul_vec m [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 3.; 7. |] v;
  Alcotest.(check (array (float 1e-12))) "col" [| 2.; 4. |] (Mat.col m 1)

let test_mat_product () =
  let a = of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let b = of_rows [| [| 7.; 8. |]; [| 9.; 10. |]; [| 11.; 12. |] |] in
  let c = Mat.mul a b in
  checkf "c00" 58. (Mat.get c 0 0);
  checkf "c01" 64. (Mat.get c 0 1);
  checkf "c10" 139. (Mat.get c 1 0);
  checkf "c11" 154. (Mat.get c 1 1)

let test_lu_solve_known () =
  let a = of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Lu.solve (Lu.decompose a) [| 5.; 10. |] in
  Alcotest.(check (array (float 1e-9))) "solution" [| 1.; 3. |] x;
  (* a zero leading entry: only a row swap reaches the pivot *)
  let swap = of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  Alcotest.(check (array (float 0.))) "pivoted solution" [| 3.; 2. |]
    (Lu.solve (Lu.decompose swap) [| 2.; 3. |])

let test_lu_singular () =
  let a = of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular raises" Lu.Singular (fun () ->
      ignore (Lu.decompose a))

let test_lu_inverse () =
  let a = of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Lu.inverse (Lu.decompose a) in
  let prod = Mat.mul a inv in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Mat.max_abs_diff prod (Ppdm_check.Oracle.identity 2) < 1e-12)

(* The condition number the estimator tests compare its gauges with. *)
let test_cond () =
  let id = Ppdm_check.Oracle.identity 3 in
  checkf "identity condition" 1. (Ppdm_check.Oracle.cond_inf id);
  let bad =
    of_rows [| [| 1.; 0.999 |]; [| 0.999; 1. |] |]
  in
  Alcotest.(check bool) "near-singular has huge condition" true
    (Ppdm_check.Oracle.cond_inf bad > 100.)

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
  let print m =
    String.concat "\n"
      (List.init (Mat.rows m) (fun i ->
           String.concat " "
             (List.init (Mat.cols m) (fun j -> Printf.sprintf "%10.6g" (Mat.get m i j)))))
  in
  QCheck.make ~print dominant_matrix_gen

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
        let id = Ppdm_check.Oracle.identity n in
        Mat.max_abs_diff (Mat.mul m inv) id < 1e-9
        && Mat.max_abs_diff (Mat.mul inv m) id < 1e-9);
    Test.make ~name:"reused factor == decompose, last row bit for bit"
      ~count:100 arbitrary_dominant (fun a ->
        (* one storage factorizes a matrix with every row reversed (so
           rows are swapped), then [a] again: nothing of the first stays *)
        let n = Mat.rows a in
        let reversed =
          Mat.init ~rows:n ~cols:n (fun i j -> Mat.get a (n - 1 - i) j)
        in
        let t = Lu.create n and row = Array.make n 0. in
        let same m =
          Lu.factor t (Mat.flat m);
          Lu.inverse_last_row t row;
          let inv = Lu.inverse (Lu.decompose m) in
          Array.for_all Fun.id
            (Array.init n (fun j ->
                 Int64.equal
                   (Int64.bits_of_float row.(j))
                   (Int64.bits_of_float (Mat.get inv (n - 1) j))))
        in
        same reversed && same a);
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
        feq ~eps:(1e-9 *. binom n k)
          (binom n k)
          (binom n (n - k)));
    Test.make ~name:"Pascal rule" ~count:200
      (pair (int_range 1 40) (int_range 1 40)) (fun (n, k) ->
        QCheck.assume (k <= n - 1);
        let lhs = binom n k in
        let rhs = binom (n - 1) k +. binom (n - 1) (k - 1) in
        feq ~eps:(1e-9 *. lhs) lhs rhs);
  ]

let test_binomial_exact () =
  checkf "C(5,2)" 10. (binom 5 2);
  checkf "C(10,0)" 1. (binom 10 0);
  checkf "C(10,10)" 1. (binom 10 10);
  checkf "C(4,7) out of range" 0. (binom 4 7);
  checkf "C(n,-1)" 0. (binom 4 (-1));
  Alcotest.(check bool) "C(52,5)" true (feq ~eps:1. (binom 52 5) 2_598_960.);
  checkf "ln C(0,0) = ln 0!" 0. (Binomial.log_choose 0 0);
  Alcotest.(check bool) "ln C(10,5) = ln (10! / 5!^2)" true
    (feq ~eps:1e-9 (Binomial.log_choose 10 5) (log 3628800. -. (2. *. log 120.)))

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
  checkf "std" 1. (Stats.std [| 1.; 2.; 3. |]);
  checkf "std, n-1 denominator" (sqrt 2.) (Stats.std [| 1.; 3. |]);
  checkf "rmse" 0. (Stats.rmse [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "rmse positive" true (Stats.rmse [| 1. |] [| 3. |] = 2.);
  checkf "chi2 uniform exact" 0. (Ppdm_check.Stat.chi_square_uniform [| 5; 5; 5; 5 |])

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
    Alcotest.test_case "LU solve known system" `Quick test_lu_solve_known;
    Alcotest.test_case "LU singular detection" `Quick test_lu_singular;
    Alcotest.test_case "LU inverse" `Quick test_lu_inverse;
    Alcotest.test_case "condition estimate" `Quick test_cond;
    Alcotest.test_case "binomial exact values" `Quick test_binomial_exact;
    Alcotest.test_case "binomial pmf values" `Quick test_binomial_pmf_values;
    Alcotest.test_case "hypergeometric values" `Quick test_hypergeom_values;
    Alcotest.test_case "summary statistics" `Quick test_stats;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
