(* Market-basket scenario: the motivating workload of the original work.

   A retailer wants association rules over customer baskets without ever
   collecting raw baskets.  We generate an IBM Quest-style synthetic
   dataset, run the privacy-preserving miner over randomized baskets, and
   compare against the non-private Apriori ground truth — then derive
   association rules from the *estimated* supports.

   Scale matters: at gamma = 19 the lowest discoverable support for pairs
   is a few percent even with 40k baskets (the accuracy analysis of the
   paper), which is why this example mines at 5% support.

   Run with:  dune exec examples/market_basket.exe *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm
open Ppdm_runtime

let () =
  let rng = Rng.create ~seed:99 () in
  let db =
    Quest.generate rng
      {
        Quest.default with
        universe = 150;
        n_transactions = 40_000;
        avg_transaction_size = 8.;
        n_patterns = 40;
      }
  in
  Printf.printf "baskets: %d over %d products, avg size %.1f\n" (Db.length db)
    (Db.universe db) (Db.avg_size db);

  (* One optimized operator per basket size, all under gamma = 19. *)
  let gamma = 19. in
  let scheme =
    Optimizer.scheme_for_estimation ~universe:(Db.universe db) ~gamma ()
  in
  (* Randomize into a report store and mine it: the route of
     [ppdm private]. *)
  let reports =
    Pool.with_pool ~jobs:1 (fun pool -> Parallel.randomize pool scheme rng db)
  in

  let min_support = 0.05 in
  let truth = Apriori.mine db ~min_support ~max_size:3 in
  let mined =
    Ppmining.mine_reports ~scheme ~reports ~min_support ~max_size:3 ()
  in
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  Printf.printf
    "minsup %.2f: %d truly frequent | mined: %d true positives, %d false positives, %d false drops\n"
    min_support (List.length truth) acc.Ppmining.true_positives
    acc.Ppmining.false_positives acc.Ppmining.false_drops;

  (* Rules from estimated supports: scale estimates back to pseudo-counts
     so the rule generator can run unchanged on private results. *)
  let n = Reports.length reports in
  let estimated_frequent =
    List.map
      (fun d ->
        ( d.Ppmining.itemset,
          int_of_float (Float.round (d.Ppmining.est_support *. float_of_int n)) ))
      mined.Ppmining.discovered
  in
  let rules = Rules.generate ~frequent:estimated_frequent ~n_transactions:n ~min_confidence:0.5 in
  Printf.printf "top private rules (of %d):\n" (List.length rules);
  List.iteri
    (fun i r -> if i < 5 then Format.printf "  %a@." Rules.pp_rule r)
    rules;

  (* And the privacy story: what could an adversary infer about one item? *)
  let size = 8 in
  let resolved = Randomizer.resolve scheme ~size in
  let realized = Amplification.gamma_resolved resolved in
  Printf.printf
    "size-%d baskets: realized gamma %.2f; a 5%% prior item is bounded by %.1f%% posterior\n"
    size realized
    (100. *. Amplification.posterior_upper_bound ~gamma:realized ~prior:0.05)
