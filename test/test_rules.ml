(* Boundary behaviour of the miners' thresholds and of rule generation:
   empty databases, the edges of the min_support domain, confidence
   ties, and the documented Invalid_argument contracts. *)

open Ppdm_data
open Ppdm_mining
open Ppdm_runtime

let mk universe rows =
  Db.create ~universe (Array.of_list (List.map Itemset.of_list rows))

(* The four miners of the differential suite, as closures over a pool so
   the parallel driver faces the same boundary inputs. *)
let with_miners f =
  Pool.with_pool ~jobs:2 (fun pool ->
      f
        [
          ("apriori", fun db ~min_support -> Apriori.mine db ~min_support);
          ("eclat", fun db ~min_support -> Ppdm_check.Eclat.mine db ~min_support);
          ("fp-growth", fun db ~min_support -> Ppdm_check.Fptree.mine db ~min_support);
          ( "parallel-apriori",
            fun db ~min_support -> Parallel.apriori_mine pool db ~min_support
          );
        ])

let test_empty_db () =
  with_miners (fun miners ->
      let db = mk 4 [] in
      List.iter
        (fun (name, mine) ->
          Alcotest.(check int)
            (name ^ " on an empty database")
            0
            (List.length (mine db ~min_support:0.5)))
        miners)

let test_min_support_zero_rejected () =
  with_miners (fun miners ->
      let db = mk 3 [ [ 0; 1 ]; [ 1; 2 ] ] in
      List.iter
        (fun (name, mine) ->
          List.iter
            (fun bad ->
              match mine db ~min_support:bad with
              | _ ->
                  Alcotest.failf "%s accepted min_support %g" name bad
              | exception Invalid_argument _ -> ())
            [ 0.; -0.25; 1.5 ])
        miners)

let test_min_support_one () =
  with_miners (fun miners ->
      (* item 1 is in every transaction; at min_support 1.0 it is the only
         survivor *)
      let db = mk 3 [ [ 0; 1 ]; [ 1; 2 ]; [ 1 ] ] in
      List.iter
        (fun (name, mine) ->
          let out = mine db ~min_support:1.0 in
          Alcotest.(check int) (name ^ " at min_support 1.0") 1
            (List.length out);
          let set, count = List.hd out in
          Alcotest.(check string) (name ^ " survivor") "{1}"
            (Itemset.to_string set);
          Alcotest.(check int) (name ^ " survivor count") 3 count)
        miners;
      (* no universally shared item: min_support 1.0 is valid and empty *)
      let disjoint = mk 3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
      List.iter
        (fun (name, mine) ->
          Alcotest.(check int)
            (name ^ " with no shared item")
            0
            (List.length (mine disjoint ~min_support:1.0)))
        miners)

let test_rules_validation () =
  Alcotest.check_raises "n_transactions 0"
    (Invalid_argument "Rules.generate: n_transactions must be positive")
    (fun () ->
      ignore
        (Rules.generate ~frequent:[] ~n_transactions:0 ~min_confidence:0.5));
  Alcotest.check_raises "min_confidence out of range"
    (Invalid_argument "Rules.generate: min_confidence out of [0,1]")
    (fun () ->
      ignore
        (Rules.generate ~frequent:[] ~n_transactions:4 ~min_confidence:1.5))

let test_rules_empty_frequent () =
  Alcotest.(check int) "no frequent itemsets, no rules" 0
    (List.length
       (Rules.generate ~frequent:[] ~n_transactions:4 ~min_confidence:0.))

let test_rules_confidence_ties () =
  (* all four rules below have confidence 1.0; the tie must break by
     decreasing support *)
  let set = Itemset.of_list in
  let frequent =
    [
      (set [ 0 ], 2);
      (set [ 1 ], 2);
      (set [ 2 ], 1);
      (set [ 3 ], 1);
      (set [ 0; 1 ], 2);
      (set [ 2; 3 ], 1);
    ]
  in
  let rules =
    Rules.generate ~frequent ~n_transactions:4 ~min_confidence:0.9
  in
  Alcotest.(check int) "four rules" 4 (List.length rules);
  List.iter
    (fun r -> Alcotest.(check (float 1e-9)) "confidence" 1.0 r.Rules.confidence)
    rules;
  Alcotest.(check (list (float 1e-9)))
    "supports in decreasing order"
    [ 0.5; 0.5; 0.25; 0.25 ]
    (List.map (fun r -> r.Rules.support) rules)

let test_rules_confidence_bounds () =
  let set = Itemset.of_list in
  let frequent = [ (set [ 0 ], 4); (set [ 1 ], 2); (set [ 0; 1 ], 2) ] in
  (* min_confidence 0.0: every candidate rule comes back *)
  Alcotest.(check int) "min_confidence 0.0 keeps everything" 2
    (List.length
       (Rules.generate ~frequent ~n_transactions:4 ~min_confidence:0.));
  (* min_confidence 1.0: only 1 => 0 (confidence 2/2) survives *)
  let strict =
    Rules.generate ~frequent ~n_transactions:4 ~min_confidence:1.0
  in
  Alcotest.(check int) "min_confidence 1.0 filters" 1 (List.length strict);
  Alcotest.(check string) "surviving antecedent" "{1}"
    (Itemset.to_string (List.hd strict).Rules.antecedent)

let suite =
  [
    Alcotest.test_case "miners on an empty database" `Quick test_empty_db;
    Alcotest.test_case "min_support outside (0,1] rejected" `Quick
      test_min_support_zero_rejected;
    Alcotest.test_case "min_support 1.0 boundary" `Quick test_min_support_one;
    Alcotest.test_case "rules argument validation" `Quick test_rules_validation;
    Alcotest.test_case "rules from no frequent itemsets" `Quick
      test_rules_empty_frequent;
    Alcotest.test_case "confidence ties break by support" `Quick
      test_rules_confidence_ties;
    Alcotest.test_case "min_confidence boundaries" `Quick
      test_rules_confidence_bounds;
  ]
