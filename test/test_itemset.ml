(* Itemset set-algebra tests, including property tests against a
   reference implementation over int lists. *)

open Ppdm_data

let items = Alcotest.testable Itemset.pp Itemset.equal

let test_of_list_normalizes () =
  let s = Itemset.of_list [ 3; 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "sorted deduped" [ 1; 2; 3 ] (Itemset.to_list s);
  Alcotest.(check int) "cardinal" 3 (Itemset.cardinal s);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Itemset.of_array: negative item") (fun () ->
      ignore (Itemset.of_list [ 1; -2 ]))

let test_empty_singleton () =
  Alcotest.(check bool) "empty" true (Itemset.is_empty Itemset.empty);
  Alcotest.(check int) "singleton size" 1 (Itemset.cardinal (Itemset.singleton 5));
  Alcotest.(check bool) "mem singleton" true (Itemset.mem 5 (Itemset.singleton 5))

let test_mem () =
  let s = Itemset.of_list [ 2; 4; 6; 8; 10 ] in
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x) (x mod 2 = 0 && x >= 2 && x <= 10) (Itemset.mem x s))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]

let test_add_remove () =
  let s = Itemset.of_list [ 1; 3 ] in
  let add x = Itemset.union s (Itemset.singleton x)
  and remove x = Itemset.diff s (Itemset.singleton x) in
  Alcotest.check items "add" (Itemset.of_list [ 1; 2; 3 ]) (add 2);
  Alcotest.check items "add existing" s (add 3);
  Alcotest.check items "remove" (Itemset.singleton 1) (remove 3);
  Alcotest.check items "remove absent" s (remove 7)

let test_set_ops () =
  let a = Itemset.of_list [ 1; 2; 3; 4 ] and b = Itemset.of_list [ 3; 4; 5 ] in
  Alcotest.check items "union" (Itemset.of_list [ 1; 2; 3; 4; 5 ]) (Itemset.union a b);
  Alcotest.check items "diff" (Itemset.of_list [ 1; 2 ]) (Itemset.diff a b);
  Alcotest.(check int) "inter_size" 2 (Itemset.inter_size a b);
  Alcotest.(check bool) "subset no" false (Itemset.subset a b);
  Alcotest.(check bool) "subset yes" true
    (Itemset.subset (Itemset.of_list [ 3; 4 ]) a);
  Alcotest.(check bool) "empty subset of all" true (Itemset.subset Itemset.empty b)

let test_nth () =
  let s = Itemset.of_list [ 10; 20; 30 ] in
  Alcotest.(check int) "nth 1" 20 (Itemset.nth s 1);
  Alcotest.check_raises "nth out of range"
    (Invalid_argument "Itemset.nth: out of range") (fun () ->
      ignore (Itemset.nth s 3))

let test_compare_order () =
  let a = Itemset.of_list [ 9 ] and b = Itemset.of_list [ 1; 2 ] in
  Alcotest.(check bool) "smaller cardinality first" true (Itemset.compare a b < 0);
  let c = Itemset.of_list [ 1; 3 ] and d = Itemset.of_list [ 1; 4 ] in
  Alcotest.(check bool) "lexicographic tie-break" true (Itemset.compare c d < 0);
  Alcotest.(check int) "equal" 0 (Itemset.compare c c)

let test_subsets_of_size () =
  let s = Itemset.of_list [ 1; 2; 3; 4 ] in
  let subs = Itemset.subsets_of_size s 2 in
  Alcotest.(check int) "C(4,2) subsets" 6 (List.length subs);
  List.iter
    (fun sub ->
      Alcotest.(check int) "size 2" 2 (Itemset.cardinal sub);
      Alcotest.(check bool) "is subset" true (Itemset.subset sub s))
    subs;
  Alcotest.(check int) "size 0 is just empty" 1
    (List.length (Itemset.subsets_of_size s 0));
  Alcotest.(check int) "oversize is none" 0
    (List.length (Itemset.subsets_of_size s 5));
  (* all distinct *)
  let sorted = List.sort_uniq Itemset.compare subs in
  Alcotest.(check int) "distinct" 6 (List.length sorted)

let test_pp () =
  Alcotest.(check string) "printing" "{1,2,3}"
    (Itemset.to_string (Itemset.of_list [ 3; 1; 2 ]));
  Alcotest.(check string) "empty printing" "{}" (Itemset.to_string Itemset.empty)

(* Reference model: sorted unique int lists. *)
let model s = Itemset.to_list s
let gen_items = QCheck.Gen.(list_size (int_range 0 12) (int_range 0 15))
let arb_itemset =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    gen_items

let qcheck_tests =
  let open QCheck in
  let module IS = Set.Make (Int) in
  let to_set l = IS.of_list l in
  [
    Test.make ~name:"union agrees with Set" ~count:500 (pair arb_itemset arb_itemset)
      (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        model (Itemset.union sa sb)
        = IS.elements (IS.union (to_set a) (to_set b)));
    Test.make ~name:"inter agrees with Set" ~count:500 (pair arb_itemset arb_itemset)
      (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        Itemset.inter_size sa sb = IS.cardinal (IS.inter (to_set a) (to_set b)));
    Test.make ~name:"diff agrees with Set" ~count:500 (pair arb_itemset arb_itemset)
      (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        model (Itemset.diff sa sb)
        = IS.elements (IS.diff (to_set a) (to_set b)));
    Test.make ~name:"inter_size = |inter|" ~count:500 (pair arb_itemset arb_itemset)
      (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        Itemset.inter_size sa sb
        = Itemset.cardinal (Itemset.diff sa (Itemset.diff sa sb)));
    Test.make ~name:"subset iff diff empty" ~count:500 (pair arb_itemset arb_itemset)
      (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        Itemset.subset sa sb = Itemset.is_empty (Itemset.diff sa sb));
    Test.make ~name:"mem matches list membership" ~count:500
      (pair arb_itemset (int_range 0 15)) (fun (a, x) ->
        Itemset.mem x (Itemset.of_list a) = List.mem x a);
    Test.make ~name:"union cardinality inclusion-exclusion" ~count:500
      (pair arb_itemset arb_itemset) (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        Itemset.cardinal (Itemset.union sa sb)
        = Itemset.cardinal sa + Itemset.cardinal sb - Itemset.inter_size sa sb);
    Test.make ~name:"compare is a total order consistent with equal" ~count:500
      (pair arb_itemset arb_itemset) (fun (a, b) ->
        let sa = Itemset.of_list a and sb = Itemset.of_list b in
        (Itemset.compare sa sb = 0) = Itemset.equal sa sb);
  ]

let suite =
  [
    Alcotest.test_case "of_list normalizes" `Quick test_of_list_normalizes;
    Alcotest.test_case "empty and singleton" `Quick test_empty_singleton;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "add and remove" `Quick test_add_remove;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "nth" `Quick test_nth;
    Alcotest.test_case "compare order" `Quick test_compare_order;
    Alcotest.test_case "subsets_of_size" `Quick test_subsets_of_size;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
