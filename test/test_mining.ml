(* Mining substrate tests: trie counting vs direct counting, Apriori vs a
   brute-force reference miner, FP-growth vs Apriori, and rule
   generation. *)

open Ppdm_data
open Ppdm_mining
module Count = Ppdm_check.Count
module Eclat = Ppdm_check.Eclat
module Fptree = Ppdm_check.Fptree

let mk universe rows = Db.create ~universe (Array.of_list (List.map Itemset.of_list rows))

let toy =
  mk 6
    [
      [ 0; 1; 2 ];
      [ 0; 1 ];
      [ 0; 2 ];
      [ 1; 2 ];
      [ 0; 1; 2; 3 ];
      [ 3; 4 ];
      [ 0; 1; 3 ];
      [ 2 ];
    ]

(* Brute-force reference: enumerate every itemset over the universe up to
   [max_size] and keep the frequent ones. *)
let reference_mine db ~min_support ~max_size =
  let n = Db.length db in
  let threshold = max 1 (int_of_float (Float.ceil (min_support *. float_of_int n))) in
  let universe_set = Itemset.of_list (List.init (Db.universe db) Fun.id) in
  let out = ref [] in
  for k = 1 to max_size do
    List.iter
      (fun candidate ->
        let c = Db.support_count db candidate in
        if c >= threshold then out := (candidate, c) :: !out)
      (Itemset.subsets_of_size universe_set k)
  done;
  List.sort (fun (a, _) (b, _) -> Itemset.compare a b) !out

let pp_result l =
  String.concat "; "
    (List.map (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c) l)

let check_same_result msg expected actual =
  Alcotest.(check string) msg (pp_result expected) (pp_result actual)

let test_count_trie_vs_direct () =
  let candidates =
    List.map Itemset.of_list [ [ 0 ]; [ 0; 1 ]; [ 1; 2 ]; [ 0; 1; 2 ]; [ 4 ]; [ 3; 4 ] ]
  in
  let counted = Count.support_counts toy candidates in
  List.iter
    (fun (s, c) ->
      Alcotest.(check int) (Itemset.to_string s) (Db.support_count toy s) c)
    counted;
  Alcotest.(check int) "all candidates reported" (List.length candidates)
    (List.length counted)

let test_count_get () =
  let t = Count.create () in
  Count.add t (Itemset.of_list [ 0; 1 ]);
  Count.add t (Itemset.of_list [ 0; 1 ]);
  Alcotest.(check int) "idempotent add" 1 (Count.candidate_count t);
  Count.count_db t toy;
  Alcotest.(check (option int)) "count" (Some 4) (Count.get t (Itemset.of_list [ 0; 1 ]));
  Alcotest.(check (option int)) "unknown" None (Count.get t (Itemset.of_list [ 2; 3 ]))

let test_apriori_toy () =
  check_same_result "apriori = reference on toy"
    (reference_mine toy ~min_support:0.25 ~max_size:6)
    (Apriori.mine toy ~min_support:0.25)

let test_apriori_max_size () =
  let result = Apriori.mine toy ~min_support:0.25 ~max_size:1 in
  List.iter
    (fun (s, _) -> Alcotest.(check int) "only singletons" 1 (Itemset.cardinal s))
    result

let test_apriori_validation () =
  Alcotest.check_raises "min_support 0"
    (Invalid_argument "Apriori.mine: min_support out of (0,1]") (fun () ->
      ignore (Apriori.mine toy ~min_support:0.))

(* Every entry point that takes a support fraction rejects NaN along
   with the out-of-range values: NaN fails every comparison, so a check
   written as a negative test used to let it through. *)
let test_min_support_range () =
  let open Ppdm_runtime in
  let vt = Vertical.of_db toy in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let entries =
    [
      ( "Threshold.check_min_support",
        Threshold.check_min_support ~who:"Threshold.check_min_support" );
      ("Threshold.absolute", fun m -> ignore (Threshold.absolute ~n:8 ~min_support:m));
      ( "Apriori.absolute_threshold",
        fun m -> ignore (Apriori.absolute_threshold ~n:8 ~min_support:m) );
      ("Apriori.mine", fun m -> ignore (Apriori.mine toy ~min_support:m));
      ("Apriori.mine_vertical", fun m -> ignore (Apriori.mine_vertical vt ~min_support:m));
      ("Eclat.mine", fun m -> ignore (Eclat.mine toy ~min_support:m));
      ("Fptree.mine", fun m -> ignore (Fptree.mine toy ~min_support:m));
      ( "Parallel.apriori_mine",
        fun m -> ignore (Parallel.apriori_mine pool toy ~min_support:m) );
      ( "Parallel.apriori_mine_vertical",
        fun m -> ignore (Parallel.apriori_mine_vertical pool vt ~min_support:m) );
    ]
  in
  List.iter
    (fun (who, f) ->
      List.iter
        (fun m ->
          Alcotest.check_raises
            (Printf.sprintf "%s rejects %g" who m)
            (Invalid_argument (who ^ ": min_support out of (0,1]"))
            (fun () -> f m))
        [ nan; 0.; 1.5 ])
    entries

let test_candidates_from () =
  let frequent = List.map Itemset.of_list [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 1; 3 ] ] in
  let cands = Apriori.candidates_from ~frequent ~size:3 in
  (* {0,1,2} joins and survives the prune; {1,2,3} requires {2,3} which is
     absent, so the prune removes it. *)
  Alcotest.(check (list string)) "candidates" [ "{0,1,2}" ]
    (List.map Itemset.to_string cands)

let test_eclat_toy () =
  check_same_result "eclat = apriori on toy"
    (Apriori.mine toy ~min_support:0.25)
    (Eclat.mine toy ~min_support:0.25)

let test_fptree_toy () =
  check_same_result "fp-growth = apriori on toy"
    (Apriori.mine toy ~min_support:0.25)
    (Fptree.mine toy ~min_support:0.25)

let test_threshold_rule () =
  (* exactly integral product: 0.25 * 8 = 2, and count-2 itemsets qualify *)
  Alcotest.(check int) "exact boundary" 2 (Threshold.absolute ~n:8 ~min_support:0.25);
  (* float dust: 0.3 * 10 = 2.9999999999999996 in binary, still 3 *)
  Alcotest.(check int) "dust below an integer product" 3
    (Threshold.absolute ~n:10 ~min_support:0.3);
  Alcotest.(check int) "strictly fractional rounds up" 3
    (Threshold.absolute ~n:10 ~min_support:0.21);
  Alcotest.(check int) "floor of 1" 1 (Threshold.absolute ~n:10 ~min_support:0.001);
  Alcotest.(check int) "empty db" 1 (Threshold.absolute ~n:0 ~min_support:0.5);
  Alcotest.check_raises "min_support 0"
    (Invalid_argument "Threshold.absolute: min_support out of (0,1]") (fun () ->
      ignore (Threshold.absolute ~n:10 ~min_support:0.));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Threshold.absolute: negative n") (fun () ->
      ignore (Threshold.absolute ~n:(-1) ~min_support:0.5))

let test_threshold_boundary_agreement () =
  (* at a min_support whose product with n is exactly integral, the
     include/exclude decision for count == threshold is where an
     unguarded ceil in one miner would diverge from the others; assert
     all three miners agree with the reference at such boundaries *)
  List.iter
    (fun min_support ->
      let expected = reference_mine toy ~min_support ~max_size:6 in
      let name which =
        Printf.sprintf "%s at minsup %g (n=%d)" which min_support (Db.length toy)
      in
      check_same_result (name "apriori") expected (Apriori.mine toy ~min_support);
      check_same_result (name "eclat") expected (Eclat.mine toy ~min_support);
      check_same_result (name "fp-growth") expected (Fptree.mine toy ~min_support))
    (* toy has n = 8: products 1.0, 2.0, 3.0, 4.0 exactly; 0.3 and 0.7
       land on non-representable products just off an integer *)
    [ 0.125; 0.25; 0.375; 0.5; 0.3; 0.7; 1.0 ]

let test_downward_closure () =
  let result = Apriori.mine toy ~min_support:0.25 in
  let set = Hashtbl.create 16 in
  List.iter (fun (s, _) -> Hashtbl.replace set s ()) result;
  List.iter
    (fun (s, _) ->
      let k = Itemset.cardinal s in
      if k >= 2 then
        List.iter
          (fun sub ->
            Alcotest.(check bool)
              (Printf.sprintf "subset %s of %s frequent" (Itemset.to_string sub)
                 (Itemset.to_string s))
              true (Hashtbl.mem set sub))
          (Itemset.subsets_of_size s (k - 1)))
    result

let gen_db =
  QCheck.Gen.(
    let* n_tx = int_range 1 40 in
    let* rows = list_size (return n_tx) (list_size (int_range 0 5) (int_range 0 7)) in
    return (mk 8 rows))

let arb_db =
  QCheck.make ~print:(fun db -> Printf.sprintf "<db of %d>" (Db.length db)) gen_db

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"apriori agrees with brute force" ~count:60
      (pair arb_db (float_range 0.1 0.9)) (fun (db, min_support) ->
        pp_result (Apriori.mine db ~min_support ~max_size:4)
        = pp_result (reference_mine db ~min_support ~max_size:4));
    Test.make ~name:"fp-growth agrees with apriori" ~count:60
      (pair arb_db (float_range 0.1 0.9)) (fun (db, min_support) ->
        pp_result (Fptree.mine db ~min_support)
        = pp_result (Apriori.mine db ~min_support));
    Test.make ~name:"eclat agrees with apriori" ~count:60
      (pair arb_db (float_range 0.1 0.9)) (fun (db, min_support) ->
        pp_result (Eclat.mine db ~min_support)
        = pp_result (Apriori.mine db ~min_support));
    Test.make ~name:"eclat respects max_size" ~count:30
      (pair arb_db (float_range 0.1 0.5)) (fun (db, min_support) ->
        List.for_all
          (fun (s, _) -> Itemset.cardinal s <= 2)
          (Eclat.mine db ~min_support ~max_size:2));
    Test.make ~name:"fp-growth respects max_size" ~count:30
      (pair arb_db (float_range 0.1 0.5)) (fun (db, min_support) ->
        List.for_all
          (fun (s, _) -> Itemset.cardinal s <= 2)
          (Fptree.mine db ~min_support ~max_size:2));
  ]

let test_rules_toy () =
  let frequent = Apriori.mine toy ~min_support:0.25 in
  let rules =
    Rules.generate ~frequent ~n_transactions:(Db.length toy) ~min_confidence:0.6
  in
  Alcotest.(check bool) "some rules found" true (rules <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "confidence >= 0.6" true (r.Rules.confidence >= 0.6);
      Alcotest.(check bool) "confidence <= 1" true (r.Rules.confidence <= 1. +. 1e-12);
      Alcotest.(check bool) "disjoint" true
        (Itemset.inter_size r.Rules.antecedent r.Rules.consequent = 0);
      (* verify the numbers directly against the database *)
      let full = Itemset.union r.Rules.antecedent r.Rules.consequent in
      let expected_conf =
        float_of_int (Db.support_count toy full)
        /. float_of_int (Db.support_count toy r.Rules.antecedent)
      in
      Alcotest.(check (float 1e-9)) "confidence correct" expected_conf r.Rules.confidence;
      Alcotest.(check (float 1e-9)) "support correct" (Db.support toy full) r.Rules.support)
    rules

let test_rules_ordering () =
  let frequent = Apriori.mine toy ~min_support:0.25 in
  let rules = Rules.generate ~frequent ~n_transactions:(Db.length toy) ~min_confidence:0. in
  let rec descending = function
    | a :: (b :: _ as rest) ->
        a.Rules.confidence >= b.Rules.confidence && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by confidence" true (descending rules)

let test_rules_validation () =
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Rules.generate: min_confidence out of [0,1]") (fun () ->
      ignore (Rules.generate ~frequent:[] ~n_transactions:1 ~min_confidence:2.))

let suite =
  [
    Alcotest.test_case "count trie vs direct" `Quick test_count_trie_vs_direct;
    Alcotest.test_case "count get" `Quick test_count_get;
    Alcotest.test_case "apriori on toy db" `Quick test_apriori_toy;
    Alcotest.test_case "apriori max_size" `Quick test_apriori_max_size;
    Alcotest.test_case "apriori validation" `Quick test_apriori_validation;
    Alcotest.test_case "min_support range rejects NaN" `Quick test_min_support_range;
    Alcotest.test_case "candidate generation" `Quick test_candidates_from;
    Alcotest.test_case "eclat on toy db" `Quick test_eclat_toy;
    Alcotest.test_case "fp-growth on toy db" `Quick test_fptree_toy;
    Alcotest.test_case "threshold rule" `Quick test_threshold_rule;
    Alcotest.test_case "threshold boundary agreement" `Quick
      test_threshold_boundary_agreement;
    Alcotest.test_case "downward closure" `Quick test_downward_closure;
    Alcotest.test_case "rules on toy db" `Quick test_rules_toy;
    Alcotest.test_case "rules ordering" `Quick test_rules_ordering;
    Alcotest.test_case "rules validation" `Quick test_rules_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests

