(* Clickstream privacy audit: the "soccer" scenario of the original
   experiments, on a synthetic stand-in.

   A site collects randomized page-visit sets from users.  This example
   plays both roles: it randomizes a Zipf-popularity clickstream, then
   AUDITS the deployment — for the most popular pages it measures the
   adversary's actual posterior from the (original, randomized) pairs and
   checks it against the analytic posterior and the distribution-free
   amplification ceiling.

   Run with:  dune exec examples/clickstream_audit.exe *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
open Ppdm_runtime

let () =
  let universe = 300 and count = 12_000 in
  let rng = Rng.create ~seed:2024 () in
  let db = Simple.zipf_clickstream rng ~universe ~exponent:1.1 ~avg_size:7. ~count in
  Printf.printf "clickstream: %d sessions over %d pages, avg %.1f pages/session\n"
    (Db.length db) universe (Db.avg_size db);

  let gamma = 9. in
  let scheme = Optimizer.scheme_for_estimation ~universe ~gamma () in
  (* the reports the site collects, drawn as [ppdm randomize] draws them;
     the audit pairs each with its original session *)
  let reports =
    Pool.with_pool ~jobs:1 (fun pool -> Parallel.randomize pool scheme rng db)
  in
  let randomized =
    let rows = ref [] in
    Reports.iter_rows reports (fun _ items off len ->
        let y = Itemset.of_sorted_array_unchecked (Array.sub items off len) in
        rows := y :: !rows);
    Db.create ~universe (Array.of_list (List.rev !rows))
  in

  let n = float_of_int (Db.length db) in
  let item_counts = Db.item_counts db in
  Printf.printf "%-6s %-8s %-12s %-12s %-10s\n" "page" "prior" "measured" "analytic*" "ceiling";
  List.iter
    (fun page ->
      let prior = float_of_int item_counts.(page) /. n in
      let present, absent =
        Breach.empirical_item_posteriors ~original:db ~randomized ~item:page
      in
      let measured = Float.max present absent in
      (* analytic posterior for the average session size (approximate:
         sessions have mixed sizes, so this is indicative, not exact) *)
      let avg_m = int_of_float (Float.round (Db.avg_size db)) in
      let resolved = Randomizer.resolve scheme ~size:avg_m in
      let analytic = Breach.worst_item_posterior resolved ~prior in
      (* distribution-free ceiling: worst realized gamma over sizes *)
      let worst_gamma =
        List.fold_left
          (fun acc (m, _) ->
            if m = 0 then acc
            else
              Float.max acc
                (Amplification.gamma_resolved (Randomizer.resolve scheme ~size:m)))
          1. (Db.size_histogram db)
      in
      let ceiling = Amplification.posterior_upper_bound ~gamma:worst_gamma ~prior in
      Printf.printf "%-6d %-8.4f %-12.4f %-12.4f %-10.4f%s\n" page prior measured
        analytic ceiling
        (if measured > ceiling then "  <-- VIOLATION" else ""))
    [ 0; 1; 2; 5; 10; 50; 150 ];
  print_endline "(*analytic uses the average session size; the ceiling holds for every size)"
