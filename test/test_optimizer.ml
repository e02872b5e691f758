(* Operator-design tests: feasibility (realized gamma never exceeds the
   budget), exact optimality of the threshold solution for the linear
   objective (vs exhaustive vertex enumeration), and sane joint designs. *)

open Ppdm

let kept_fraction dist =
  let m = Array.length dist - 1 in
  let acc = ref 0. in
  Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) dist;
  !acc /. float_of_int m

let realized_gamma ~rho dist =
  Amplification.gamma_resolved { Randomizer.keep_dist = dist; rho }

let test_keep_dist_valid () =
  let dist = Optimizer.keep_dist ~m:6 ~rho:0.1 ~gamma:19. Optimizer.Max_kept in
  Alcotest.(check int) "length" 7 (Array.length dist);
  Alcotest.(check (float 1e-9)) "normalized" 1. (Array.fold_left ( +. ) 0. dist);
  Array.iter (fun p -> Alcotest.(check bool) "positive" true (p > 0.)) dist

let test_gamma_budget_respected () =
  List.iter
    (fun (m, rho, gamma) ->
      let dist = Optimizer.keep_dist ~m ~rho ~gamma Optimizer.Max_kept in
      let g = realized_gamma ~rho dist in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d rho=%g: realized %.4f <= %.4f" m rho g gamma)
        true
        (g <= gamma *. (1. +. 1e-9)))
    [ (3, 0.05, 19.); (5, 0.1, 19.); (8, 0.2, 9.); (10, 0.02, 49.); (4, 0.4, 2.) ]

(* Exhaustive check: among ALL vertices u in {1, gamma}^(m+1) (which contain
   the optimum of the linear-fractional objective), the threshold search
   finds the best one. *)
let exhaustive_best ~m ~rho ~gamma objective_score =
  let best = ref neg_infinity in
  for mask = 0 to (1 lsl (m + 1)) - 1 do
    let logs =
      Array.init (m + 1) (fun j ->
          Ppdm_linalg.Binomial.log_choose m j
          +. (float_of_int j *. (log rho -. log (1. -. rho)))
          +. if mask land (1 lsl j) <> 0 then log gamma else 0.)
    in
    let top = Array.fold_left Float.max neg_infinity logs in
    let unnorm = Array.map (fun l -> exp (l -. top)) logs in
    let total = Array.fold_left ( +. ) 0. unnorm in
    let dist = Array.map (fun v -> v /. total) unnorm in
    let v = objective_score dist in
    if v > !best then best := v
  done;
  !best

let test_max_kept_exhaustive () =
  List.iter
    (fun (m, rho, gamma) ->
      let dist = Optimizer.keep_dist ~m ~rho ~gamma Optimizer.Max_kept in
      let got = kept_fraction dist in
      let best = exhaustive_best ~m ~rho ~gamma kept_fraction in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d: threshold %.6f = exhaustive %.6f" m got best)
        true
        (got >= best -. 1e-12))
    [ (3, 0.1, 19.); (5, 0.05, 9.); (6, 0.3, 4.); (7, 0.02, 49.) ]

let test_min_sigma_exhaustive () =
  let objective = Optimizer.Min_sigma { k = 2; n = 10_000; p_bg = 0.05; support = 0.02 } in
  let sigma_of ~rho dist =
    Estimator.predicted_sigma { Randomizer.keep_dist = dist; rho } ~k:2
      ~partials:(Estimator.binomial_profile ~k:2 ~p_bg:0.05 ~support:0.02)
      ~n:10_000
  in
  List.iter
    (fun (m, rho, gamma) ->
      let dist = Optimizer.keep_dist ~m ~rho ~gamma objective in
      let got = sigma_of ~rho dist in
      let best =
        -.exhaustive_best ~m ~rho ~gamma (fun d ->
            match sigma_of ~rho d with
            | sigma -> -.sigma
            | exception Estimator.Unrecoverable _ -> neg_infinity)
      in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d: local %.6f vs exhaustive %.6f" m got best)
        true
        (got <= best *. (1. +. 1e-9)))
    [ (3, 0.1, 19.); (5, 0.05, 9.) ]

let test_monotone_in_gamma () =
  (* a looser privacy budget can only improve utility *)
  let kept gamma =
    kept_fraction (Optimizer.keep_dist ~m:6 ~rho:0.08 ~gamma Optimizer.Max_kept)
  in
  let previous = ref 0. in
  List.iter
    (fun gamma ->
      let k = kept gamma in
      Alcotest.(check bool)
        (Printf.sprintf "gamma %.0f kept %.4f >= %.4f" gamma k !previous)
        true
        (k >= !previous -. 1e-12);
      previous := k)
    [ 1.; 2.; 5.; 10.; 20.; 50.; 100. ]

let test_gamma_one_is_uninformative () =
  (* gamma = 1 forces p_j proportional to g_j, i.e. the posterior equals the
     prior: the operator carries no information about its input *)
  let rho = 0.3 in
  let dist = Optimizer.keep_dist ~m:4 ~rho ~gamma:1. Optimizer.Max_kept in
  Alcotest.(check (float 1e-9)) "gamma realized 1" 1. (realized_gamma ~rho dist);
  (* such an operator's output distribution is that of a fresh Bernoulli
     process: keep probability must equal rho *)
  let scheme = Randomizer.select_a_size ~universe:20 ~size:4 ~keep_dist:dist ~rho in
  let q = Randomizer.expected_kept_fraction scheme ~size:4 in
  Alcotest.(check (float 1e-9)) "keep prob = rho" rho q

let test_design_joint () =
  let d = Optimizer.design ~m:5 ~gamma:19. Optimizer.Max_kept in
  Alcotest.(check bool) "rho in range" true (d.Optimizer.rho > 0. && d.Optimizer.rho < 0.5 +. 1e-9);
  Alcotest.(check bool) "gamma within budget" true (d.Optimizer.gamma <= 19. *. (1. +. 1e-9));
  Alcotest.(check (float 1e-9)) "value consistent" d.Optimizer.value
    (kept_fraction d.Optimizer.dist);
  (* kept fraction must beat any single grid point it dominates *)
  Alcotest.(check bool) "achieves something" true (d.Optimizer.value > 0.3)

let test_design_min_sigma () =
  let objective = Optimizer.Min_sigma { k = 2; n = 50_000; p_bg = 0.02; support = 0.01 } in
  let d = Optimizer.design ~m:5 ~gamma:19. objective in
  Alcotest.(check bool) "sigma is positive and small" true
    (-.d.Optimizer.value > 0. && -.d.Optimizer.value < 0.05);
  Alcotest.(check bool) "gamma within budget" true
    (d.Optimizer.gamma <= 19. *. (1. +. 1e-9))

let test_validation () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Optimizer: m must be >= 1")
    (fun () -> ignore (Optimizer.keep_dist ~m:0 ~rho:0.1 ~gamma:2. Optimizer.Max_kept));
  Alcotest.check_raises "rho = 0" (Invalid_argument "Optimizer: rho must be in (0,1)")
    (fun () -> ignore (Optimizer.keep_dist ~m:3 ~rho:0. ~gamma:2. Optimizer.Max_kept));
  Alcotest.check_raises "gamma < 1" (Invalid_argument "Optimizer: gamma must be >= 1")
    (fun () -> ignore (Optimizer.keep_dist ~m:3 ~rho:0.1 ~gamma:0.5 Optimizer.Max_kept))

let test_cut_and_paste_best () =
  match
    Optimizer.cut_and_paste_best ~universe:1000 ~m:5 ~worst_posterior:0.5 ~prior:0.05
  with
  | None -> Alcotest.fail "expected a feasible cut-and-paste design"
  | Some (cutoff, rho) ->
      Alcotest.(check bool) "cutoff in range" true (cutoff >= 0 && cutoff <= 15);
      let scheme = Randomizer.cut_and_paste ~universe:1000 ~cutoff ~rho in
      let r = Randomizer.resolve scheme ~size:5 in
      Alcotest.(check bool) "posterior constraint met" true
        (Breach.worst_item_posterior r ~prior:0.05 <= 0.5 +. 1e-9)

let test_cut_and_paste_best_infeasible () =
  (* demanding posterior below the prior is impossible *)
  Alcotest.(check bool) "infeasible returns None" true
    (Optimizer.cut_and_paste_best ~universe:1000 ~m:5 ~worst_posterior:0.01
       ~prior:0.05
    = None)

(* The metrics registry is global: leave it disabled and empty. *)
let with_metrics f =
  Ppdm_obs.Metrics.reset ();
  Ppdm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      Ppdm_obs.Metrics.reset ())
    f

let test_design_counters () =
  with_metrics (fun () ->
      ignore (Optimizer.design_for_estimation ~m:8 ~gamma:19. ());
      let counters = (Ppdm_obs.Metrics.snapshot ()).Ppdm_obs.Metrics.counters in
      let get name = Option.value (List.assoc_opt name counters) ~default:0 in
      (* 20 grid points, 14 golden-section steps of two, one refined ρ *)
      Alcotest.(check int) "rho evaluations" 49 (get "optimizer.rho_evals");
      (* per ρ: 10 threshold vertices, then all 2^9 vertices at m = 8 *)
      Alcotest.(check int) "vertices" (49 * (10 + 512)) (get "optimizer.vertices"))

let test_fixed_rho_scheme () =
  let rho = 0.1 and gamma = 19. in
  let scheme = Optimizer.scheme_for_estimation ~rho ~universe:50 ~gamma () in
  Alcotest.(check string) "name prints rho with %g"
    "optimized-sas(gamma=19,rho=0.1)" (Randomizer.name scheme);
  List.iter
    (fun m ->
      let r = Randomizer.resolve scheme ~size:m in
      Alcotest.(check (float 0.)) "rho as given" rho r.Randomizer.rho;
      Alcotest.(check bool)
        (Printf.sprintf "size %d: per-size optimum at the given rho" m)
        true
        (r.Randomizer.keep_dist
        = Optimizer.keep_dist ~m ~rho ~gamma
            (Optimizer.Min_sigma_upto
               { k_max = min 3 m; n = 100_000; p_bg = 0.02; support = 0.01 })))
    [ 1; 2; 5; 9 ];
  (* without ?rho the search runs and the name keeps %.4g *)
  let designed = Optimizer.scheme_for_estimation ~universe:50 ~gamma () in
  let rho = (Optimizer.design_for_estimation ~m:8 ~gamma ()).Optimizer.rho in
  Alcotest.(check string) "searched name"
    (Printf.sprintf "optimized-sas(gamma=19,rho=%.4g)" rho)
    (Randomizer.name designed)

let test_design_differential () =
  match
    Ppdm_check.Selftest.operator_design_differential ~max_m:12
      ~rhos:[ 0.02; 0.1; 0.3 ] ~design_max_m:6
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The vertex scorer writes every matrix into scratch; the matrix route
   builds each one afresh and conjugates the whole covariance. *)
let test_vertex_scorer_differential () =
  match
    Ppdm_check.Selftest.vertex_scorer_differential ~exhaustive_m:8 ~max_m:21
      ~gammas:[ 3.; 9.; 19.; 50. ] ~rhos:[ 1e-3; 0.02; 0.1; 0.3; 0.5 ]
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Scoring a vertex writes into the scorer's scratch: the matrices, the
   factorizations and the σ rows are made once per ρ.  What is left is
   the boxed σ each k returns across the module boundary; building the
   matrices afresh, as the search did before, cost ≈ 550 words a vertex. *)
let test_scorer_allocation_guard () =
  let m = 8 in
  let s =
    Optimizer.scorer ~m ~rho:0.2949 ~gamma:19.
      (Optimizer.Min_sigma_upto
         { k_max = 3; n = 100_000; p_bg = 0.02; support = 0.01 })
  in
  let high = Array.init (m + 1) (fun j -> j mod 3 = 0) in
  ignore (Optimizer.score_vertex s high);
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Optimizer.score_vertex s high))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per vertex <= 16" per_call)
    true (per_call <= 16.)

(* The ρ search on a pool designs the same operator, bit for bit, and
   does the same work: counters recorded on the workers are summed. *)
let test_design_on_pool () =
  let design ?run () =
    with_metrics (fun () ->
        let scheme =
          Optimizer.scheme_for_estimation ?run ~universe:100 ~gamma:19. ()
        in
        let counters = (Ppdm_obs.Metrics.snapshot ()).Ppdm_obs.Metrics.counters in
        let get name = Option.value (List.assoc_opt name counters) ~default:0 in
        ( List.init 22 (fun size -> Randomizer.resolve scheme ~size),
          get "optimizer.rho_evals",
          get "optimizer.vertices" ))
  in
  let bits (r : Randomizer.resolved) =
    ( Int64.bits_of_float r.rho,
      Array.map Int64.bits_of_float r.keep_dist )
  in
  let want, _, _ = design () in
  List.iter
    (fun jobs ->
      Ppdm_runtime.Pool.with_pool ~jobs (fun pool ->
          let got, rho_evals, vertices =
            design ~run:(Ppdm_runtime.Pool.run pool) ()
          in
          List.iteri
            (fun size (g, w) ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs %d size %d: same operator" jobs size)
                true
                (bits g = bits w))
            (List.combine got want);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: rho evaluations" jobs)
            49 rho_evals;
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: vertices" jobs)
            (49 * (10 + 512)) vertices))
    [ 1; 2; 4 ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"optimized dist is a full-support distribution" ~count:100
      (triple (int_range 1 12) (float_range 0.01 0.45) (float_range 1.5 100.))
      (fun (m, rho, gamma) ->
        let dist = Optimizer.keep_dist ~m ~rho ~gamma Optimizer.Max_kept in
        Array.length dist = m + 1
        && Float.abs (Array.fold_left ( +. ) 0. dist -. 1.) < 1e-9
        && Array.for_all (fun p -> p > 0.) dist);
    Test.make ~name:"realized gamma never exceeds the budget" ~count:100
      (triple (int_range 1 12) (float_range 0.01 0.45) (float_range 1.5 100.))
      (fun (m, rho, gamma) ->
        let dist = Optimizer.keep_dist ~m ~rho ~gamma Optimizer.Max_kept in
        realized_gamma ~rho dist <= gamma *. (1. +. 1e-6));
  ]

let suite =
  [
    Alcotest.test_case "distribution validity" `Quick test_keep_dist_valid;
    Alcotest.test_case "gamma budget respected" `Quick test_gamma_budget_respected;
    Alcotest.test_case "max-kept vs exhaustive vertices" `Quick test_max_kept_exhaustive;
    Alcotest.test_case "min-sigma vs exhaustive vertices" `Quick test_min_sigma_exhaustive;
    Alcotest.test_case "monotone in gamma" `Quick test_monotone_in_gamma;
    Alcotest.test_case "gamma = 1 is uninformative" `Quick test_gamma_one_is_uninformative;
    Alcotest.test_case "joint design (max kept)" `Quick test_design_joint;
    Alcotest.test_case "joint design (min sigma)" `Quick test_design_min_sigma;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "cut-and-paste tuning" `Quick test_cut_and_paste_best;
    Alcotest.test_case "cut-and-paste infeasible" `Quick test_cut_and_paste_best_infeasible;
    Alcotest.test_case "design counters" `Quick test_design_counters;
    Alcotest.test_case "fixed-rho scheme" `Quick test_fixed_rho_scheme;
    Alcotest.test_case "basis vs direct-form design" `Quick test_design_differential;
    Alcotest.test_case "vertex scorer == matrix route" `Quick test_vertex_scorer_differential;
    Alcotest.test_case "design on a pool at jobs 1/2/4" `Quick test_design_on_pool;
    Alcotest.test_case "vertex scorer allocation guard" `Quick test_scorer_allocation_guard;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
