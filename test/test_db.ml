(* Transaction-database and serialization tests. *)

open Ppdm_data

let mk universe rows = Db.create ~universe (Array.of_list (List.map Itemset.of_list rows))

let sample = mk 10 [ [ 1; 2; 3 ]; [ 2; 3 ]; [ 3; 4; 5 ]; []; [ 1; 2; 3; 9 ] ]

let test_create_validation () =
  Alcotest.check_raises "item beyond universe"
    (Invalid_argument "Db.create: item outside the universe") (fun () ->
      ignore (mk 3 [ [ 0; 3 ] ]));
  Alcotest.check_raises "bad universe"
    (Invalid_argument "Db.create: universe must be positive") (fun () ->
      ignore (mk 0 []))

let test_basics () =
  Alcotest.(check int) "length" 5 (Db.length sample);
  Alcotest.(check int) "universe" 10 (Db.universe sample);
  Alcotest.(check (list int)) "get" [ 2; 3 ] (Itemset.to_list (Db.get sample 1));
  Alcotest.(check bool) "avg size" true (Float.abs (Db.avg_size sample -. 2.4) < 1e-12)

let test_support () =
  Alcotest.(check int) "count {2,3}" 3 (Db.support_count sample (Itemset.of_list [ 2; 3 ]));
  Alcotest.(check int) "count {3}" 4 (Db.support_count sample (Itemset.singleton 3));
  Alcotest.(check int) "count empty = all" 5 (Db.support_count sample Itemset.empty);
  Alcotest.(check bool) "support fraction" true
    (Float.abs (Db.support sample (Itemset.of_list [ 2; 3 ]) -. 0.6) < 1e-12)

let test_partial_supports () =
  let counts = Db.partial_support_counts sample (Itemset.of_list [ 2; 3 ]) in
  Alcotest.(check (array int)) "partials" [| 1; 1; 3 |] counts;
  Alcotest.(check int) "partials sum to length" (Db.length sample)
    (Array.fold_left ( + ) 0 counts)

let test_item_counts () =
  let counts = Db.item_counts sample in
  Alcotest.(check int) "item 3 count" 4 counts.(3);
  Alcotest.(check int) "item 0 count" 0 counts.(0);
  Alcotest.(check int) "item 9 count" 1 counts.(9)

let test_size_histogram () =
  Alcotest.(check (list (pair int int))) "histogram"
    [ (0, 1); (2, 1); (3, 2); (4, 1) ]
    (Db.size_histogram sample)

let test_map_filter_sub_append () =
  let bumped = Db.map (Itemset.add 0) sample in
  Alcotest.(check int) "map keeps length" 5 (Db.length bumped);
  Alcotest.(check int) "item 0 everywhere" 5 (Db.support_count bumped (Itemset.singleton 0));
  let nonempty = Db.filter (fun t -> not (Itemset.is_empty t)) sample in
  Alcotest.(check int) "filter" 4 (Db.length nonempty);
  let slice = Db.sub sample ~pos:1 ~len:2 in
  Alcotest.(check int) "sub" 2 (Db.length slice);
  let doubled = Db.append sample sample in
  Alcotest.(check int) "append" 10 (Db.length doubled);
  Alcotest.check_raises "append universe mismatch"
    (Invalid_argument "Db.append: universe mismatch") (fun () ->
      ignore (Db.append sample (mk 11 [])))

let test_density_split_quantiles () =
  Alcotest.(check bool) "density" true
    (Float.abs (Db.density sample -. (12. /. 50.)) < 1e-12);
  let a, b = Db.split sample ~at:2 in
  Alcotest.(check int) "left" 2 (Db.length a);
  Alcotest.(check int) "right" 3 (Db.length b);
  Alcotest.(check (list int)) "right starts at third" [ 3; 4; 5 ]
    (Itemset.to_list (Db.get b 0));
  Alcotest.check_raises "bad split" (Invalid_argument "Db.split: index out of bounds")
    (fun () -> ignore (Db.split sample ~at:6));
  let quantiles = Db.item_frequency_quantiles sample [ 0.; 1. ] in
  Alcotest.(check (list (float 1e-12))) "min and max item frequency"
    [ 0.; 0.8 ] quantiles

let test_io_roundtrip () =
  let path = Filename.temp_file "ppdm_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file path sample;
      let back = Io.read_file path in
      Alcotest.(check int) "universe" (Db.universe sample) (Db.universe back);
      Alcotest.(check int) "length" (Db.length sample) (Db.length back);
      Db.iteri
        (fun i tx ->
          Alcotest.(check (list int))
            (Printf.sprintf "transaction %d" i)
            (Itemset.to_list tx)
            (Itemset.to_list (Db.get back i)))
        sample)

let read_string_with read s =
  let path = Filename.temp_file "ppdm_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      read path)

let read_string = read_string_with Io.read_file

let test_io_malformed () =
  let expect_failure msg input =
    match read_string input with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail msg
  in
  expect_failure "missing header" "1 2 3\n";
  expect_failure "negative universe" "universe -1 transactions 0\n";
  expect_failure "item outside universe" "universe 2 transactions 1\n5\n";
  expect_failure "non-integer item" "universe 2 transactions 1\nfoo\n";
  expect_failure "truncated body" "universe 2 transactions 2\n0\n";
  (* an understated header count must not silently drop the tail *)
  expect_failure "trailing transaction" "universe 2 transactions 1\n0 1\n0\n";
  expect_failure "trailing garbage" "universe 2 transactions 1\n0 1\nhello\n";
  (* a corrupt count sizes no allocation: it fails as a short body *)
  Alcotest.check_raises "huge declared count"
    (Failure "Io.read: fewer transactions than declared") (fun () ->
      ignore (read_string "universe 2 transactions 99999999999\n0 1\n"));
  (* trailing blank lines (e.g. editor-added final newline) stay legal *)
  let db = read_string "universe 2 transactions 1\n0 1\n\n  \n" in
  Alcotest.(check int) "blank tail tolerated" 1 (Db.length db)

(* Tagged randomized data: (original size, randomized itemset) rows,
   including an empty itemset and a size that differs from the row. *)
let test_tagged_roundtrip () =
  let rows =
    [|
      (3, Itemset.of_list [ 0; 4; 9 ]);
      (2, Itemset.empty);
      (5, Itemset.of_list [ 7 ]);
    |]
  in
  let path = Filename.temp_file "ppdm_tagged" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_tagged path ~universe:10 rows;
      let universe, back = Io.read_tagged path in
      Alcotest.(check int) "universe" 10 universe;
      Alcotest.(check int) "rows" (Array.length rows) (Array.length back);
      Array.iteri
        (fun i (size, items) ->
          let size', items' = back.(i) in
          Alcotest.(check int) (Printf.sprintf "row %d size" i) size size';
          Alcotest.(check (list int))
            (Printf.sprintf "row %d items" i)
            (Itemset.to_list items) (Itemset.to_list items'))
        rows)

let test_tagged_malformed () =
  let read = read_string_with Io.read_tagged in
  let expect_failure msg input =
    match read input with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail msg
  in
  expect_failure "bad token" "tagged 10 transactions 1\n2|1 x 3\n";
  expect_failure "truncated body" "tagged 10 transactions 2\n2|1 3\n";
  expect_failure "bad size field" "tagged 10 transactions 1\nz|1 3\n";
  expect_failure "negative size" "tagged 10 transactions 1\n-1|1 3\n";
  expect_failure "missing separator" "tagged 10 transactions 1\n1 3\n";
  expect_failure "bad header" "universe 10 transactions 1\n2|1 3\n";
  expect_failure "empty input" "";
  expect_failure "trailing row" "tagged 10 transactions 1\n2|1 3\n2|4\n";
  Alcotest.check_raises "huge declared count"
    (Failure "Io.read_tagged: fewer transactions than declared") (fun () ->
      ignore (read "tagged 2 transactions 99999999999\n2|0 1\n"));
  match read "tagged 10 transactions 1\n2|1 42\n" with
  | exception Io.Item_out_of_universe { item = 42; universe = 10 } -> ()
  | exception Io.Item_out_of_universe _ ->
      Alcotest.fail "wrong item/universe in the typed error"
  | _ -> Alcotest.fail "out-of-universe item accepted"

(* The reader contract as a table: every reader [Failure] with its exact
   message, the fields of the typed out-of-universe error, CRLF line
   ends, and the non-decimal tokens [int_of_string_opt] accepts. *)
type outcome =
  | Rows of int * int list list  (** universe, rows *)
  | Fails of string
  | Outside of int * int  (** item, universe *)

let reader_contract =
  let plain s = read_string_with Io.read_file s in
  let tagged s = read_string_with Io.read_tagged s in
  let fimi ?universe s = read_string_with (Io.read_fimi ?universe) s in
  let fold ?universe s =
    read_string_with
      (fun p ->
        let rows, info =
          Io.fold_transactions ?universe p ~init:[] ~f:(fun acc tx ->
              tx :: acc)
        in
        (info.Io.universe, List.rev rows))
      s
  in
  let db r =
    let db = r () in
    Rows (Db.universe db, List.map Itemset.to_list (Array.to_list (Db.transactions db)))
  in
  let rows r =
    let u, rows = r () in
    Rows (u, List.map Itemset.to_list rows)
  in
  (* a tagged row's size becomes its first element *)
  let tagged_rows s =
    let u, rows = tagged s in
    Rows (u, Array.to_list (Array.map (fun (n, t) -> n :: Itemset.to_list t) rows))
  in
  [
    ("plain: no header", (fun () -> db (fun () -> plain "1 2 3\n")),
     Fails "Io.read: malformed header");
    ("plain: negative universe", (fun () -> db (fun () -> plain "universe -1 transactions 0\n")),
     Fails "Io.read: malformed header values");
    ("plain: bad item", (fun () -> db (fun () -> plain "universe 4 transactions 1\n1 foo\n")),
     Fails "Io.read: bad item \"foo\"");
    ("plain: item outside", (fun () -> db (fun () -> plain "universe 2 transactions 1\n5\n")),
     Fails "Io.read: item outside the declared universe");
    ("plain: negative item", (fun () -> db (fun () -> plain "universe 2 transactions 1\n-1\n")),
     Fails "Io.read: item outside the declared universe");
    ("plain: truncated", (fun () -> db (fun () -> plain "universe 2 transactions 2\n0\n")),
     Fails "Io.read: fewer transactions than declared");
    ("plain: trailing", (fun () -> db (fun () -> plain "universe 2 transactions 1\n0\n1\n")),
     Fails "Io.read: trailing content after the declared transactions");
    ("plain: empty", (fun () -> db (fun () -> plain "")), Fails "Io.read: empty input");
    ("plain: CRLF", (fun () -> db (fun () -> plain "universe 5 transactions 2\r\n3 1\r\n\r\n")),
     Rows (5, [ [ 1; 3 ]; [] ]));
    ("plain: non-decimal tokens",
     (fun () -> db (fun () -> plain "universe 20 transactions 1\n+3 0x3 1_0 007  0b1 0o7\n")),
     Rows (20, [ [ 1; 3; 7; 10 ] ]));
    ("tagged: bad header", (fun () -> tagged_rows "universe 10 transactions 1\n2|1\n"),
     Fails "Io.read_tagged: malformed header");
    ("tagged: bad item", (fun () -> tagged_rows "tagged 10 transactions 1\n2|1 x 3\n"),
     Fails "Io.read_tagged: bad item \"x\"");
    ("tagged: no separator", (fun () -> tagged_rows "tagged 10 transactions 1\n1 3\n"),
     Fails "Io.read_tagged: row without a size|items separator");
    ("tagged: bad size", (fun () -> tagged_rows "tagged 10 transactions 1\n z|1 3\n"),
     Fails "Io.read_tagged: bad size \" z\"");
    ("tagged: negative size", (fun () -> tagged_rows "tagged 10 transactions 1\n-1|1 3\n"),
     Fails "Io.read_tagged: bad size \"-1\"");
    ("tagged: truncated", (fun () -> tagged_rows "tagged 10 transactions 2\n2|1 3\n"),
     Fails "Io.read_tagged: fewer transactions than declared");
    ("tagged: trailing", (fun () -> tagged_rows "tagged 10 transactions 1\n2|1\n2|4\n"),
     Fails "Io.read_tagged: trailing content after the declared transactions");
    ("tagged: empty", (fun () -> tagged_rows ""), Fails "Io.read_tagged: empty input");
    ("tagged: item outside", (fun () -> tagged_rows "tagged 10 transactions 1\n2|1 42\n"),
     Outside (42, 10));
    ("tagged: negative item", (fun () -> tagged_rows "tagged 10 transactions 1\n2|-4\n"),
     Outside (-4, 10));
    ("tagged: CRLF and tokens",
     (fun () -> tagged_rows "tagged 10 transactions 2\r\n 3 |9 +2 0x1\r\n0|\r\n"),
     Rows (10, [ [ 3; 1; 2; 9 ]; [ 0 ] ]));
    ("fimi: bad item", (fun () -> db (fun () -> fimi "1 2 x\n")),
     Fails "Io.read_fimi: bad item \"x\"");
    ("fimi: negative item", (fun () -> db (fun () -> fimi "1 -2\n")),
     Fails "Io.read_fimi: bad item \"-2\"");
    ("fimi: item outside", (fun () -> db (fun () -> fimi ~universe:3 "0 1\n2 7\n")),
     Outside (7, 3));
    ("fimi: CRLF and tokens", (fun () -> db (fun () -> fimi "5 0x2 +1\r\n\r\n007\r\n")),
     Rows (8, [ [ 1; 2; 5 ]; []; [ 7 ] ]));
    ("fimi: empty", (fun () -> db (fun () -> fimi "")), Rows (1, []));
    (* 18 digits is the widest token that cannot overflow *)
    ("fimi: 18 digits", (fun () -> rows (fun () -> fold "999999999999999999\n")),
     Rows (1_000_000_000_000_000_000, [ [ 999_999_999_999_999_999 ] ]));
    ("fimi: 19 digits", (fun () -> db (fun () -> fimi "9999999999999999999\n")),
     Fails "Io.read_fimi: bad item \"9999999999999999999\"");
    ("fold: header", (fun () -> rows (fun () -> fold "universe 6 transactions 1\r\n5 1\r\n")),
     Rows (6, [ [ 1; 5 ] ]));
    ("fold: override disagrees",
     (fun () -> rows (fun () -> fold ~universe:7 "universe 6 transactions 0\n")),
     Fails "Io.fold_transactions: universe override disagrees with the header");
    ("fold: truncated", (fun () -> rows (fun () -> fold "universe 6 transactions 2\n1\n")),
     Fails "Io.read: fewer transactions than declared");
    ("fold: fimi", (fun () -> rows (fun () -> fold "3 +1\n\n")), Rows (4, [ [ 1; 3 ]; [] ]));
    ("fold: fimi outside", (fun () -> rows (fun () -> fold ~universe:2 "1\n0 2\n")),
     Outside (2, 2));
    ("fold: fimi bad item", (fun () -> rows (fun () -> fold "1 -1\n")),
     Fails "Io.read_fimi: bad item \"-1\"");
  ]

let test_reader_contract () =
  let show = function
    | Rows (u, rows) ->
        Printf.sprintf "universe %d: %s" u
          (String.concat " / "
             (List.map (fun r -> String.concat "," (List.map string_of_int r)) rows))
    | Fails msg -> "Failure " ^ msg
    | Outside (item, universe) -> Printf.sprintf "Item_out_of_universe %d/%d" item universe
  in
  List.iter
    (fun (name, run, expected) ->
      let got =
        match run () with
        | r -> r
        | exception Failure msg -> Fails msg
        | exception Io.Item_out_of_universe { item; universe } -> Outside (item, universe)
      in
      Alcotest.(check string) name (show expected) (show got))
    reader_contract

let test_fimi_roundtrip () =
  let path = Filename.temp_file "ppdm_fimi" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_fimi path sample;
      (* universe is inferred as max item + 1 = 10 here, matching sample *)
      let back = Io.read_fimi path in
      Alcotest.(check int) "inferred universe" 10 (Db.universe back);
      Alcotest.(check int) "length" (Db.length sample) (Db.length back);
      Db.iteri
        (fun i tx ->
          Alcotest.(check (list int))
            (Printf.sprintf "transaction %d" i)
            (Itemset.to_list tx)
            (Itemset.to_list (Db.get back i)))
        sample;
      (* explicit universe override *)
      let wide = Io.read_fimi ~universe:50 path in
      Alcotest.(check int) "override universe" 50 (Db.universe wide);
      match Io.read_fimi ~universe:3 path with
      | exception Io.Item_out_of_universe { item = 3; universe = 3 } -> ()
      | exception Io.Item_out_of_universe _ ->
          Alcotest.fail "wrong item/universe in the typed error"
      | _ -> Alcotest.fail "undersized universe accepted")

let test_fimi_malformed () =
  let path = Filename.temp_file "ppdm_fimi_bad" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1 2 x\n";
      close_out oc;
      match Io.read_fimi path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "bad token accepted")

let qcheck_tests =
  let open QCheck in
  let gen_db =
    Gen.(
      let* n_tx = int_range 0 20 in
      let* rows =
        list_size (return n_tx) (list_size (int_range 0 6) (int_range 0 9))
      in
      return (mk 10 rows))
  in
  let arb_db = make ~print:(fun db -> Printf.sprintf "<db %d>" (Db.length db)) gen_db in
  [
    Test.make ~name:"io round-trip preserves databases" ~count:50 arb_db
      (fun db ->
        let path = Filename.temp_file "ppdm_rt" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Io.write_file path db;
            let back = Io.read_file path in
            Db.universe back = Db.universe db
            && Db.length back = Db.length db
            && Array.for_all2 Itemset.equal (Db.transactions db)
                 (Db.transactions back)));
    Test.make ~name:"partial supports sum to db length" ~count:100
      (pair arb_db (list_of_size (Gen.int_range 0 4) (int_range 0 9)))
      (fun (db, items) ->
        let a = Itemset.of_list items in
        Array.fold_left ( + ) 0 (Db.partial_support_counts db a) = Db.length db);
    Test.make ~name:"split then append is the identity" ~count:100
      (pair arb_db (int_range 0 100)) (fun (db, percent) ->
        let at = Db.length db * percent / 100 in
        let a, b = Db.split db ~at in
        let back = Db.append a b in
        Db.length back = Db.length db
        && Array.for_all2 Itemset.equal (Db.transactions back) (Db.transactions db));
    Test.make ~name:"top partial equals support count" ~count:100
      (pair arb_db (list_of_size (Gen.int_range 1 4) (int_range 0 9)))
      (fun (db, items) ->
        let a = Itemset.of_list items in
        let partials = Db.partial_support_counts db a in
        partials.(Itemset.cardinal a) = Db.support_count db a);
  ]

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "support counting" `Quick test_support;
    Alcotest.test_case "partial supports" `Quick test_partial_supports;
    Alcotest.test_case "item counts" `Quick test_item_counts;
    Alcotest.test_case "size histogram" `Quick test_size_histogram;
    Alcotest.test_case "map/filter/sub/append" `Quick test_map_filter_sub_append;
    Alcotest.test_case "density/split/quantiles" `Quick test_density_split_quantiles;
    Alcotest.test_case "io round-trip" `Quick test_io_roundtrip;
    Alcotest.test_case "io malformed inputs" `Quick test_io_malformed;
    Alcotest.test_case "tagged round-trip" `Quick test_tagged_roundtrip;
    Alcotest.test_case "tagged malformed inputs" `Quick test_tagged_malformed;
    Alcotest.test_case "fimi round-trip" `Quick test_fimi_roundtrip;
    Alcotest.test_case "fimi malformed" `Quick test_fimi_malformed;
    Alcotest.test_case "reader contract" `Quick test_reader_contract;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
