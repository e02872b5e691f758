(* Smoke tests for the experiment harness: each driver runs on scaled-down
   inputs and its output satisfies the qualitative shape claims recorded
   in EXPERIMENTS.md (monotonicities, no bound violations).  These keep
   the bench reproducible as the library evolves. *)

open Ppdm
open Ppdm_check

let test_t1_shape () =
  let rows = Experiment.t1_breach_limits () in
  Alcotest.(check bool) "non-empty" true (rows <> []);
  List.iter
    (fun (r : Experiment.t1_row) ->
      Alcotest.(check (float 1e-9)) "closed form" r.gamma_limit
        (Amplification.gamma_breach_limit ~rho1:r.rho1 ~rho2:r.rho2);
      Alcotest.(check bool) "gamma > 1" true (r.gamma_limit > 1.))
    rows;
  (* the paper's anchor value *)
  let anchor =
    List.find (fun (r : Experiment.t1_row) -> r.rho1 = 0.05 && r.rho2 = 0.5) rows
  in
  Alcotest.(check (float 1e-9)) "5% -> 50% is 19" 19. anchor.Experiment.gamma_limit

let test_t2_shape () =
  let rows = Experiment.t2_cut_and_paste () in
  List.iter
    (fun (r : Experiment.t2_row) ->
      (* K below the transaction size leaves zero keep mass somewhere:
         no finite amplification *)
      if r.cutoff < r.size then
        Alcotest.(check (float 0.))
          (Printf.sprintf "K=%d < m=%d is uncertifiable" r.cutoff r.size)
          infinity r.gamma;
      Alcotest.(check bool) "posterior is a probability" true
        (r.worst_posterior >= 0. && r.worst_posterior <= 1.))
    rows

let test_f2_monotone () =
  let rows = Experiment.f2_discoverable_vs_gamma () in
  (* within each (size, k), discoverable support must not increase in gamma *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (p : Experiment.f2_point) ->
      let key = (p.size, p.k) in
      Hashtbl.replace groups key
        (p :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    rows;
  Hashtbl.iter
    (fun (size, k) points ->
      let sorted =
        List.sort
          (fun (a : Experiment.f2_point) b -> Float.compare a.gamma b.gamma)
          points
      in
      let rec check = function
        | (a : Experiment.f2_point) :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "m=%d k=%d: %.5f@%.0f >= %.5f@%.0f" size k
                 a.discoverable a.gamma b.discoverable b.gamma)
              true
              (a.discoverable >= b.discoverable -. 1e-9);
            check rest
        | _ -> ()
      in
      check sorted)
    groups

let test_f3_calibration_small () =
  let rows = Experiment.f3_sigma_validation ~trials:6 ~count:3000 () in
  List.iter
    (fun (r : Experiment.f3_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: mean %.4f within noise of %.4f" r.k
           r.mean_estimate r.support)
        true
        (Float.abs (r.mean_estimate -. r.support)
        < 5. *. r.predicted_sigma /. sqrt (float_of_int r.trials) *. 3.);
      Alcotest.(check bool) "predicted sigma positive" true (r.predicted_sigma > 0.))
    rows

let test_f5_no_violation () =
  List.iter
    (fun (p : Experiment.f5_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "prior %.3f: empirical %.4f <= ceiling %.4f" p.prior
           p.empirical_posterior p.bound)
        true
        (p.empirical_posterior <= p.bound +. 0.06);
      Alcotest.(check bool) "analytic below ceiling" true
        (p.analytic_posterior <= p.bound +. 1e-9))
    (Experiment.f5_bound_validation ~count:2000 ())

let test_a1_sas_wins () =
  let rows = Experiment.a1_rr_comparison () in
  List.iter
    (fun (r : Experiment.a1_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "m=%d gamma=%.0f: sas %.5f <= rr %.5f" r.size r.gamma
           r.sas_sigma_k2 r.rr_sigma_k2)
        true
        (* the optimized design can never be worse than RR at the same
           budget: RR's induced operator is inside the feasible set *)
        (r.sas_sigma_k2 <= r.rr_sigma_k2 *. 1.02))
    rows

let test_f4_small () =
  let rows = Experiment.f4_mining_accuracy ~count:1500 () in
  List.iter
    (fun (r : Experiment.f4_row) ->
      Alcotest.(check bool) "counts consistent" true
        (r.true_positives + r.false_drops = r.true_frequent
        && r.true_positives >= 0 && r.false_positives >= 0))
    rows

let test_a2_small () =
  let rows = Experiment.a2_slack_ablation ~count:1500 () in
  (* exploration grows with slack *)
  let rec check = function
    | (a : Experiment.a2_row) :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "explored %d@%.1f <= %d@%.1f" a.explored a.sigma_slack
             b.explored b.sigma_slack)
          true
          (a.explored <= b.explored);
        check rest
    | _ -> ()
  in
  check rows

let suite =
  [
    Alcotest.test_case "T1 shape" `Quick test_t1_shape;
    Alcotest.test_case "T2 shape" `Quick test_t2_shape;
    Alcotest.test_case "F2 monotone in gamma" `Slow test_f2_monotone;
    Alcotest.test_case "F3 calibration (small)" `Slow test_f3_calibration_small;
    Alcotest.test_case "F5 no violation (small)" `Slow test_f5_no_violation;
    Alcotest.test_case "A1 sas dominates rr" `Slow test_a1_sas_wins;
    Alcotest.test_case "F4 bookkeeping (small)" `Slow test_f4_small;
    Alcotest.test_case "A2 exploration monotone (small)" `Slow test_a2_small;
  ]
