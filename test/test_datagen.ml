(* Synthetic data generator tests: shape, determinism, and the exactness
   guarantees of the planted-support generator. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen

let test_fixed_size () =
  let rng = Rng.create ~seed:1 () in
  let db = Simple.fixed_size rng ~universe:50 ~size:7 ~count:200 in
  Alcotest.(check int) "count" 200 (Db.length db);
  Db.iter
    (fun tx -> Alcotest.(check int) "size" 7 (Itemset.cardinal tx))
    db;
  Alcotest.(check int) "universe" 50 (Db.universe db)

let test_fixed_size_validation () =
  let rng = Rng.create () in
  Alcotest.check_raises "size > universe"
    (Invalid_argument "Simple.fixed_size: bad size") (fun () ->
      ignore (Simple.fixed_size rng ~universe:5 ~size:6 ~count:1))

let test_fixed_size_marginals () =
  (* Every item should appear with frequency ~ size/universe. *)
  let rng = Rng.create ~seed:2 () in
  let db = Simple.fixed_size rng ~universe:20 ~size:5 ~count:4000 in
  let counts = Db.item_counts db in
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. 4000. in
      Alcotest.(check bool)
        (Printf.sprintf "item %d freq %.3f near 0.25" i freq)
        true
        (Float.abs (freq -. 0.25) < 0.03))
    counts

let test_zipf_clickstream () =
  let rng = Rng.create ~seed:3 () in
  let db =
    Simple.zipf_clickstream rng ~universe:200 ~exponent:1.1 ~avg_size:8. ~count:2000
  in
  Alcotest.(check int) "count" 2000 (Db.length db);
  Alcotest.(check bool) "avg size in range" true
    (Db.avg_size db > 5. && Db.avg_size db < 9.5);
  let counts = Db.item_counts db in
  Alcotest.(check bool) "head item dominates tail" true
    (counts.(0) > 5 * counts.(150))

let test_bernoulli_marginals () =
  let rng = Rng.create ~seed:14 () in
  let item_probs = [| 0.8; 0.05; 0.3; 0. |] in
  let db = Ppdm_check.Gen.bernoulli_db rng ~item_probs ~count:5000 in
  let counts = Db.item_counts db in
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. 5000. in
      Alcotest.(check bool)
        (Printf.sprintf "item %d freq %.3f near %.2f" i freq item_probs.(i))
        true
        (Float.abs (freq -. item_probs.(i)) < 0.02))
    counts;
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Gen.bernoulli_db: probability out of [0,1]") (fun () ->
      ignore (Ppdm_check.Gen.bernoulli_db rng ~item_probs:[| 1.2 |] ~count:1))

let test_planted_exact_support () =
  let rng = Rng.create ~seed:4 () in
  let itemset = Itemset.of_list [ 3; 7 ] in
  let db =
    Simple.planted rng ~universe:40 ~size:6 ~count:1000 ~itemset ~support:0.12
  in
  Alcotest.(check int) "exact planted count" 120 (Db.support_count db itemset);
  Db.iter (fun tx -> Alcotest.(check int) "size" 6 (Itemset.cardinal tx)) db

let test_planted_validation () =
  let rng = Rng.create () in
  Alcotest.check_raises "itemset too large"
    (Invalid_argument "Simple.planted: itemset larger than size") (fun () ->
      ignore
        (Simple.planted rng ~universe:10 ~size:1 ~count:1
           ~itemset:(Itemset.of_list [ 1; 2 ])
           ~support:0.5));
  Alcotest.check_raises "support out of range"
    (Invalid_argument "Simple.planted: support out of [0,1]") (fun () ->
      ignore
        (Simple.planted rng ~universe:10 ~size:2 ~count:1
           ~itemset:(Itemset.singleton 1) ~support:1.5))

let test_quest_shape () =
  let rng = Rng.create ~seed:5 () in
  let params = { Quest.default with n_transactions = 1000; universe = 300 } in
  let db = Quest.generate rng params in
  Alcotest.(check int) "count" 1000 (Db.length db);
  Alcotest.(check int) "universe" 300 (Db.universe db);
  let avg = Db.avg_size db in
  Alcotest.(check bool)
    (Printf.sprintf "avg size %.2f in (4, 14)" avg)
    true
    (avg > 4. && avg < 14.);
  Db.iter
    (fun tx ->
      Itemset.iter
        (fun x -> Alcotest.(check bool) "item in universe" true (x >= 0 && x < 300))
        tx)
    db

let test_quest_determinism () =
  let gen seed =
    Quest.generate (Rng.create ~seed ())
      { Quest.default with n_transactions = 100; universe = 100 }
  in
  let a = gen 9 and b = gen 9 and c = gen 10 in
  Alcotest.(check bool) "same seed same data" true
    (Array.for_all2 Itemset.equal (Db.transactions a) (Db.transactions b));
  Alcotest.(check bool) "different seed differs" true
    (not (Array.for_all2 Itemset.equal (Db.transactions a) (Db.transactions c)))

let test_quest_has_patterns () =
  (* Pattern-based generation must create correlated items: some pair
     should be far more frequent than independence predicts. *)
  let rng = Rng.create ~seed:6 () in
  let params =
    { Quest.default with n_transactions = 3000; universe = 200; n_patterns = 20 }
  in
  let db = Quest.generate rng params in
  let counts = Db.item_counts db in
  let n = float_of_int (Db.length db) in
  (* take the two most frequent items and check their joint support *)
  let top = Array.mapi (fun i c -> (c, i)) counts in
  Array.sort compare top;
  let _, a = top.(Array.length top - 1) and _, b = top.(Array.length top - 2) in
  let joint = Db.support db (Itemset.of_list [ a; b ]) in
  let independent = float_of_int counts.(a) /. n *. (float_of_int counts.(b) /. n) in
  Alcotest.(check bool)
    (Printf.sprintf "joint %.4f vs independent %.4f" joint independent)
    true
    (joint > independent)

let test_quest_validation () =
  let rng = Rng.create () in
  Alcotest.check_raises "bad correlation"
    (Invalid_argument "Quest: correlation out of [0,1]") (fun () ->
      ignore (Quest.generate rng { Quest.default with correlation = 2. }));
  Alcotest.check_raises "bad universe"
    (Invalid_argument "Quest: universe must be positive") (fun () ->
      ignore (Quest.generate rng { Quest.default with universe = 0 }))

let suite =
  [
    Alcotest.test_case "fixed_size shape" `Quick test_fixed_size;
    Alcotest.test_case "fixed_size validation" `Quick test_fixed_size_validation;
    Alcotest.test_case "fixed_size marginals" `Quick test_fixed_size_marginals;
    Alcotest.test_case "zipf clickstream" `Quick test_zipf_clickstream;
    Alcotest.test_case "bernoulli marginals" `Quick test_bernoulli_marginals;
    Alcotest.test_case "planted exact support" `Quick test_planted_exact_support;
    Alcotest.test_case "planted validation" `Quick test_planted_validation;
    Alcotest.test_case "quest shape" `Quick test_quest_shape;
    Alcotest.test_case "quest determinism" `Quick test_quest_determinism;
    Alcotest.test_case "quest correlation" `Quick test_quest_has_patterns;
    Alcotest.test_case "quest validation" `Quick test_quest_validation;
  ]
