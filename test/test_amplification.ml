(* Amplification tests: the closed-form γ against a direct maximization,
   the breach-prevention constants, and the central theorem checked
   empirically: no posterior under any tested prior ever exceeds the
   amplification bound. *)

open Ppdm_linalg
open Ppdm
module Oracle = Ppdm_check.Oracle

(* Direct maximization of the pairwise ratio
   (p_a1 / C(m,a1)) ((1-rho)/rho)^a1  over  (p_a2 / C(m,a2)) ((1-rho)/rho)^a2
   without the log-space shortcut; validates the implementation. *)
let brute_gamma (r : Randomizer.resolved) =
  let m = Array.length r.keep_dist - 1 in
  if m = 0 then 1.
  else if r.rho <= 0. || r.rho >= 1. then infinity
  else begin
    let weight a =
      r.keep_dist.(a) /. exp (Binomial.log_choose m a)
      *. Float.pow ((1. -. r.rho) /. r.rho) (float_of_int a)
    in
    let best = ref 0. in
    for a1 = 0 to m do
      for a2 = 0 to m do
        let w2 = weight a2 in
        let ratio = if w2 = 0. then infinity else weight a1 /. w2 in
        if ratio > !best then best := ratio
      done
    done;
    !best
  end

let test_gamma_trivial () =
  let r : Randomizer.resolved = { keep_dist = [| 1. |]; rho = 0.5 } in
  Alcotest.(check (float 1e-12)) "empty size" 1. (Amplification.gamma_resolved r)

let test_gamma_infinite_cases () =
  (* rho = 0 -> outputs are subsets only: unbounded *)
  let r0 : Randomizer.resolved = { keep_dist = [| 0.5; 0.5 |]; rho = 0. } in
  Alcotest.(check (float 0.)) "rho 0" infinity (Amplification.gamma_resolved r0);
  (* zero keep probability somewhere -> unbounded *)
  let scheme = Randomizer.cut_and_paste ~universe:100 ~cutoff:2 ~rho:0.3 in
  Alcotest.(check (float 0.)) "cut-and-paste K < m" infinity
    (Amplification.gamma scheme ~size:6)

let test_gamma_known_value () =
  (* m = 1, keep_dist = (1/2, 1/2), rho: ratio between a=1 and a=0 weights is
     ((1-rho)/rho); the uniform m=1 operator with p_keep=1/2 likewise. *)
  let r : Randomizer.resolved = { keep_dist = [| 0.5; 0.5 |]; rho = 0.25 } in
  Alcotest.(check (float 1e-9)) "two-point operator" 3.
    (Amplification.gamma_resolved r);
  (* Warner-style per-item randomization, m = 1: the output carries
     evidence both from the kept item and from the absent one, so
     gamma = (p_keep/p_add) * ((1-p_add)/(1-p_keep)) = 4 * 4 = 16. *)
  let scheme = Randomizer.uniform ~universe:100 ~p_keep:0.8 ~p_add:0.2 in
  Alcotest.(check (float 1e-9)) "randomized response m=1" 16.
    (Amplification.gamma scheme ~size:1)

let test_gamma_matches_brute_force () =
  let cases =
    [
      { Randomizer.keep_dist = [| 0.1; 0.2; 0.3; 0.4 |]; rho = 0.2 };
      { Randomizer.keep_dist = [| 0.25; 0.25; 0.25; 0.25 |]; rho = 0.45 };
      { Randomizer.keep_dist = [| 0.01; 0.04; 0.15; 0.3; 0.5 |]; rho = 0.1 };
      { Randomizer.keep_dist = [| 0.7; 0.1; 0.1; 0.05; 0.05 |]; rho = 0.6 };
    ]
  in
  List.iter
    (fun r ->
      let expected = brute_gamma r in
      let got = Amplification.gamma_resolved r in
      Alcotest.(check bool)
        (Printf.sprintf "gamma %.4f near %.4f" got expected)
        true
        (Float.abs (got -. expected) /. expected < 1e-9))
    cases

let test_breach_limit_constants () =
  (* the paper's running example: 5% to 50% needs gamma < 19 *)
  Alcotest.(check (float 1e-9)) "5% -> 50%" 19.
    (Amplification.gamma_breach_limit ~rho1:0.05 ~rho2:0.5);
  Alcotest.(check (float 1e-9)) "10% -> 50%" 9.
    (Amplification.gamma_breach_limit ~rho1:0.1 ~rho2:0.5);
  Alcotest.check_raises "bad arguments"
    (Invalid_argument "Amplification.gamma_breach_limit: need 0 < rho1 < rho2 < 1")
    (fun () -> ignore (Amplification.gamma_breach_limit ~rho1:0.5 ~rho2:0.1))

let test_downward_breach () =
  (* the upward limit also rules out downward breaches: with gamma below
     it, the posterior floor at prior rho2 stays above rho1, and at the
     limit it reaches rho1 *)
  List.iter
    (fun (rho1, rho2) ->
      let limit = Amplification.gamma_breach_limit ~rho1 ~rho2 in
      Alcotest.(check bool) "floor above rho1 below the limit" true
        (Oracle.posterior_lower_bound ~gamma:(0.95 *. limit) ~prior:rho2 > rho1);
      Alcotest.(check (float 1e-9)) "floor at the limit" rho1
        (Oracle.posterior_lower_bound ~gamma:limit ~prior:rho2))
    [ (0.05, 0.5); (0.1, 0.9) ]

let test_posterior_bounds_shape () =
  (* bound at the breach-limit gamma applied at prior rho1 gives exactly rho2 *)
  let rho1 = 0.05 and rho2 = 0.5 in
  let gamma = Amplification.gamma_breach_limit ~rho1 ~rho2 in
  Alcotest.(check (float 1e-9)) "upper bound tight" rho2
    (Amplification.posterior_upper_bound ~gamma ~prior:rho1);
  Alcotest.(check (float 1e-12)) "prior 0" 0.
    (Amplification.posterior_upper_bound ~gamma ~prior:0.);
  Alcotest.(check (float 1e-12)) "prior 1" 1.
    (Amplification.posterior_upper_bound ~gamma ~prior:1.);
  Alcotest.(check (float 1e-12)) "infinite gamma" 1.
    (Amplification.posterior_upper_bound ~gamma:infinity ~prior:0.01);
  (* lower bound mirrors: at prior rho2 with the same gamma, floor is rho1 *)
  Alcotest.(check (float 1e-9)) "lower bound tight" rho1
    (Oracle.posterior_lower_bound ~gamma ~prior:rho2)

(* The breach-prevention theorem, checked analytically: for every operator
   and every prior, the exact item posteriors stay within the gamma
   bounds. *)
let test_theorem_item_posteriors () =
  let operators =
    [
      { Randomizer.keep_dist = [| 0.1; 0.2; 0.3; 0.4 |]; rho = 0.2 };
      { Randomizer.keep_dist = [| 0.05; 0.15; 0.3; 0.2; 0.2; 0.1 |]; rho = 0.07 };
      { Randomizer.keep_dist = [| 0.3; 0.3; 0.4 |]; rho = 0.35 };
    ]
  in
  List.iter
    (fun r ->
      let gamma = Amplification.gamma_resolved r in
      List.iter
        (fun prior ->
          let upper = Amplification.posterior_upper_bound ~gamma ~prior in
          let lower = Oracle.posterior_lower_bound ~gamma ~prior in
          let present, absent = Oracle.item_posteriors r ~prior in
          List.iter
            (fun post ->
              Alcotest.(check bool)
                (Printf.sprintf "prior %.2f post %.4f within [%.4f, %.4f]" prior
                   post lower upper)
                true
                (post <= upper +. 1e-12 && post >= lower -. 1e-12))
            [ present; absent; Breach.worst_item_posterior r ~prior ])
        [ 0.001; 0.01; 0.05; 0.1; 0.3; 0.5; 0.9 ])
    operators

(* The theorem also holds for the itemset-level "cause" posterior. *)
let test_theorem_itemset_posterior () =
  let r : Randomizer.resolved =
    { keep_dist = [| 0.05; 0.15; 0.3; 0.2; 0.2; 0.1 |]; rho = 0.07 }
  in
  let gamma = Amplification.gamma_resolved r in
  List.iter
    (fun prior ->
      let partials = Estimator.binomial_profile ~k:3 ~p_bg:0.1 ~support:prior in
      let post = Oracle.itemset_posterior r ~partials in
      let upper = Amplification.posterior_upper_bound ~gamma ~prior in
      Alcotest.(check bool)
        (Printf.sprintf "itemset prior %.3f post %.4f <= %.4f" prior post upper)
        true
        (post <= upper +. 1e-12))
    [ 0.001; 0.01; 0.05; 0.2 ]

let qcheck_tests =
  let open QCheck in
  let arb_operator =
    let gen =
      Gen.(
        let* m = int_range 1 10 in
        let* rho = float_range 0.02 0.6 in
        let* raw = array_size (return (m + 1)) (float_range 0.01 1.) in
        let total = Array.fold_left ( +. ) 0. raw in
        return
          { Randomizer.keep_dist = Array.map (fun x -> x /. total) raw; rho })
    in
    make ~print:(fun (r : Randomizer.resolved) ->
        Printf.sprintf "m=%d rho=%g" (Array.length r.keep_dist - 1) r.rho)
      gen
  in
  [
    Test.make ~name:"gamma closed form = direct maximization" ~count:300
      arb_operator (fun r ->
        let a = Amplification.gamma_resolved r and b = brute_gamma r in
        Float.abs (a -. b) /. b < 1e-9);
    Test.make ~name:"gamma >= 1 always" ~count:300 arb_operator (fun r ->
        Amplification.gamma_resolved r >= 1.);
    Test.make ~name:"posteriors bounded by gamma for random priors" ~count:300
      (pair arb_operator (float_range 0.001 0.999)) (fun (r, prior) ->
        let gamma = Amplification.gamma_resolved r in
        let upper = Amplification.posterior_upper_bound ~gamma ~prior in
        let lower = Oracle.posterior_lower_bound ~gamma ~prior in
        let p1, p2 = Oracle.item_posteriors r ~prior in
        Breach.worst_item_posterior r ~prior <= upper +. 1e-9
        && p1 >= lower -. 1e-9 && p2 >= lower -. 1e-9);
    Test.make ~name:"posterior bound is monotone in the prior" ~count:200
      (triple arb_operator (float_range 0.01 0.5) (float_range 0.01 0.5))
      (fun (r, a, b) ->
        let gamma = Amplification.gamma_resolved r in
        let lo = Float.min a b and hi = Float.max a b in
        Amplification.posterior_upper_bound ~gamma ~prior:lo
        <= Amplification.posterior_upper_bound ~gamma ~prior:hi +. 1e-12);
  ]

let suite =
  [
    Alcotest.test_case "gamma of trivial operator" `Quick test_gamma_trivial;
    Alcotest.test_case "gamma infinite cases" `Quick test_gamma_infinite_cases;
    Alcotest.test_case "gamma known values" `Quick test_gamma_known_value;
    Alcotest.test_case "gamma vs brute force" `Quick test_gamma_matches_brute_force;
    Alcotest.test_case "breach limit constants" `Quick test_breach_limit_constants;
    Alcotest.test_case "downward breaches" `Quick test_downward_breach;
    Alcotest.test_case "posterior bound shape" `Quick test_posterior_bounds_shape;
    Alcotest.test_case "theorem: item posteriors" `Quick test_theorem_item_posteriors;
    Alcotest.test_case "theorem: itemset posterior" `Quick test_theorem_itemset_posterior;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
