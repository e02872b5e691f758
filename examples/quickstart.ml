(* Quickstart: the five-minute tour of the library.

   1. Clients hold private size-5 transactions over 200 items.
   2. We design a select-a-size operator certified for gamma = 19 — by the
      amplification theorem, no property's posterior can be pushed past
      50% if its prior was at most 5%.
   3. Each transaction is randomized locally; the server only sees noise.
   4. The server still recovers the support of a target itemset, with a
      standard error it can compute itself.

   Run with:  dune exec examples/quickstart.exe *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
open Ppdm_runtime

let () =
  let universe = 200 and size = 5 and count = 20_000 in
  let rng = Rng.create ~seed:7 () in

  (* A database with a planted itemset of known support 8%. *)
  let secret = Itemset.of_list [ 11; 42 ] in
  let db = Simple.planted rng ~universe ~size ~count ~itemset:secret ~support:0.08 in
  Printf.printf "true support of %s: %.4f\n" (Itemset.to_string secret)
    (Db.support db secret);

  (* Design the randomization operator under an amplification budget. *)
  let gamma = 19. in
  let design = Optimizer.design_for_estimation ~m:size ~gamma () in
  let scheme =
    Randomizer.select_a_size ~universe ~size ~keep_dist:design.Optimizer.dist
      ~rho:design.Optimizer.rho
  in
  Printf.printf "operator: %s, expected items kept %.1f%%\n"
    (Randomizer.name scheme)
    (100. *. Randomizer.expected_kept_fraction scheme ~size);
  Printf.printf "privacy certificate: gamma = %.2f => a 5%% prior can reach at most %.1f%%\n"
    design.Optimizer.gamma
    (100.
    *. Amplification.posterior_upper_bound ~gamma:design.Optimizer.gamma
         ~prior:0.05);

  (* Clients randomize (the route of [ppdm randomize]); the server sees
     only the reports, each tagged with its original size. *)
  let reports =
    Pool.with_pool ~jobs:1 (fun pool -> Parallel.randomize pool scheme rng db)
  in

  (* Support recovery on the server: every report folded into one
     accumulator, as [ppdm recover] folds a tagged file. *)
  let acc = Stream.create ~scheme ~itemset:secret in
  Reports.iter_rows reports (fun size items off len ->
      Stream.observe acc ~size
        (Itemset.of_sorted_array_unchecked (Array.sub items off len)));
  let e = Stream.estimate acc in
  let lo, hi = Estimator.confidence_interval e ~level:0.95 in
  Printf.printf "recovered support: %.4f  (sigma %.4f, 95%% CI [%.4f, %.4f])\n"
    e.Estimator.support e.Estimator.sigma lo hi;
  Printf.printf "within %.2f sigma of the truth\n"
    (Float.abs (e.Estimator.support -. Db.support db secret) /. e.Estimator.sigma)
