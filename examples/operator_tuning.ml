(* Operator tuning: how to pick randomization parameters.

   For a deployment with size-5 transactions this example sweeps the
   amplification budget gamma and shows what each privacy level costs in
   utility: the designed noise rate, the expected fraction of items kept,
   the predicted estimator sigma, and the lowest support the server can
   still discover.  It then contrasts the optimizer objectives, including
   why maximizing kept items alone is a trap (noise is free under that
   objective, so rho degenerates to 0.5) and why single-k sigma targets
   can silently break other itemset sizes.

   Run with:  dune exec examples/operator_tuning.exe *)

open Ppdm

let pp_dist dist =
  String.concat " "
    (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p) dist))

let kept dist =
  let m = Array.length dist - 1 in
  let acc = ref 0. in
  Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) dist;
  !acc /. float_of_int m

let sigma_at (d : Optimizer.design) ~k =
  let resolved : Randomizer.resolved =
    { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
  in
  match
    Estimator.predicted_sigma resolved ~k
      ~partials:(Estimator.binomial_profile ~k ~p_bg:0.02 ~support:0.01)
      ~n:100_000
  with
  | sigma -> sigma
  | exception Estimator.Unrecoverable _ -> Float.infinity

let () =
  let m = 5 in
  Printf.printf "transaction size m = %d, N = 100k, background rate 2%%\n\n" m;
  Printf.printf "%-8s %-8s %-8s %-10s %-12s %s\n" "gamma" "rho" "kept" "sigma(k=2)"
    "discover@k2" "keep distribution p_0..p_m";
  List.iter
    (fun gamma ->
      let d = Optimizer.design_for_estimation ~m ~gamma () in
      let resolved : Randomizer.resolved =
        { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
      in
      let discover =
        Estimator.lowest_discoverable_support resolved ~k:2 ~n:100_000 ~p_bg:0.02
      in
      Printf.printf "%-8.1f %-8.4f %-8.3f %-10.5f %-12.5f %s\n" gamma
        d.Optimizer.rho (kept d.Optimizer.dist) (sigma_at d ~k:2) discover
        (pp_dist d.Optimizer.dist))
    [ 2.; 5.; 9.; 19.; 49.; 99. ];

  print_newline ();
  print_endline "objective comparison at gamma = 19 (sigma per itemset size k):";
  let describe name (d : Optimizer.design) =
    Printf.printf
      "  %-12s rho %.4f  kept %.3f  sigma k1 %-9s k2 %-9s k3 %-9s\n" name
      d.Optimizer.rho (kept d.Optimizer.dist)
      (Printf.sprintf "%.5f" (sigma_at d ~k:1))
      (Printf.sprintf "%.5f" (sigma_at d ~k:2))
      (Printf.sprintf "%.5f" (sigma_at d ~k:3))
  in
  describe "max-kept" (Optimizer.design ~m ~gamma:19. Optimizer.Max_kept);
  describe "min-sigma@2"
    (Optimizer.design ~m ~gamma:19.
       (Optimizer.Min_sigma { k = 2; n = 100_000; p_bg = 0.02; support = 0.01 }));
  describe "min-upto-3"
    (Optimizer.design ~m ~gamma:19.
       (Optimizer.Min_sigma_upto
          { k_max = 3; n = 100_000; p_bg = 0.02; support = 0.01 }));
  print_endline
    "\nmax-kept drives rho to 0.5 (noise is unpenalized); min-sigma@2 can be\n\
     singular at other sizes; min-upto-3 (the default of\n\
     Optimizer.design_for_estimation) stays usable for every k the server\n\
     will query."
