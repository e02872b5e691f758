(* PPDMC columnar storage tests: the codec round-trip on the word-boundary
   width classes, every corruption class as its typed error, the
   two-pass streaming converter, and the columnar load end to end
   against the in-RAM engine. *)

open Ppdm_data
open Ppdm_mining

let bpw = Bitset.bits_per_word

let words_of_tids ~n tids =
  let words = Array.make (Bitset.words_for n) 0 in
  Array.iter
    (fun tid ->
      let w = tid / bpw in
      words.(w) <- words.(w) lor (1 lsl (tid mod bpw)))
    tids;
  words

(* What [Colfile.payload] returns for an item holding [tids]: the shape
   [Vertical.of_db] would give it. *)
let stored ~n tids =
  if Bitset.dense_for ~n (Array.length tids) then words_of_tids ~n tids
  else tids

(* --- units ---------------------------------------------------------- *)

let test_last_word_mask () =
  Alcotest.(check int) "width 62 is full" ((1 lsl bpw) - 1)
    (Bitset.last_word_mask ~width:62);
  Alcotest.(check int) "width 124 is full" ((1 lsl bpw) - 1)
    (Bitset.last_word_mask ~width:124);
  Alcotest.(check int) "width 61" ((1 lsl 61) - 1)
    (Bitset.last_word_mask ~width:61);
  Alcotest.(check int) "width 63 wraps to one bit" 1
    (Bitset.last_word_mask ~width:63);
  Alcotest.(check int) "width 1" 1 (Bitset.last_word_mask ~width:1);
  Alcotest.check_raises "width 0 rejected"
    (Invalid_argument "Bitset.last_word_mask: width must be positive")
    (fun () -> ignore (Bitset.last_word_mask ~width:0))

(* --- the PPDMC codec ------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "ppdm_colfile" ".ppdmc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Per item: every tid (dense), one tid in 97 (always sparse: below the
   1/62 cutoff), alternating tids (dense), none. *)
let make_tids ~n ~universe =
  Array.init universe (fun item ->
      let keep =
        match item mod 4 with
        | 0 -> fun _ -> true
        | 1 -> fun t -> t mod 97 = 3
        | 2 -> fun t -> t mod 2 = item / 2 mod 2
        | _ -> fun _ -> false
      in
      Array.of_list (List.filter keep (List.init n Fun.id)))

let test_colfile_roundtrip () =
  List.iter
    (fun n ->
      with_temp @@ fun path ->
      let universe = 9 in
      let tids = make_tids ~n ~universe in
      Colfile.write path ~n tids;
      let cf = Colfile.open_file path in
      Fun.protect
        ~finally:(fun () -> Colfile.close cf)
        (fun () ->
          Alcotest.(check int) "universe" universe (Colfile.universe cf);
          Alcotest.(check int) "length" n (Colfile.length cf);
          Array.iteri
            (fun item ts ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d item %d directory card" n item)
                (Array.length ts)
                (Colfile.item_count cf item);
              Alcotest.(check (array int))
                (Printf.sprintf "n=%d item %d round-trip" n item)
                (stored ~n ts) (Colfile.payload cf item))
            tids))
    [ 1; 61; 62; 63; 124; 3968; 8000 ];
  with_temp @@ fun path ->
  Alcotest.check_raises "descending tids rejected"
    (Invalid_argument "Colfile.write: tids not ascending in [0, n)") (fun () ->
      Colfile.write path ~n:10 [| [| 4; 2 |] |]);
  Alcotest.check_raises "tid past n rejected"
    (Invalid_argument "Colfile.write: tids not ascending in [0, n)") (fun () ->
      Colfile.write path ~n:10 [| [| 10 |] |])

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let expect_error what f =
  match f () with
  | exception Colfile.Error e -> e
  | _ -> Alcotest.fail (what ^ ": corruption accepted")

let test_colfile_corruption () =
  with_temp @@ fun path ->
  let n = 500 and universe = 5 in
  Colfile.write path ~n (make_tids ~n ~universe);
  let good = read_bytes path in
  let mutate what patch check =
    with_temp @@ fun mpath ->
    write_bytes mpath (patch good);
    let e =
      expect_error what (fun () ->
          let cf = Colfile.open_file mpath in
          Fun.protect
            ~finally:(fun () -> Colfile.close cf)
            (fun () ->
              for item = 0 to Colfile.universe cf - 1 do
                ignore (Colfile.payload cf item)
              done))
    in
    if not (check e) then
      Alcotest.fail
        (Printf.sprintf "%s: wrong error (%s)" what (Colfile.error_message e))
  in
  let patch_at pos f s =
    let bs = Bytes.of_string s in
    f bs pos;
    Bytes.to_string bs
  in
  let set_byte pos b = patch_at pos (fun bs pos -> Bytes.set_uint8 bs pos b) in
  let corrupt = function Colfile.Corrupt _ -> true | _ -> false in
  let truncated = function Colfile.Truncated _ -> true | _ -> false in
  mutate "bad magic" (set_byte 0 (Char.code 'X'))
    (function Colfile.Bad_magic -> true | _ -> false);
  mutate "bad version" (set_byte 6 99)
    (function Colfile.Unsupported_version 99 -> true | _ -> false);
  mutate "version 1" (set_byte 6 1)
    (function Colfile.Unsupported_version 1 -> true | _ -> false);
  mutate "truncated header" (fun s -> String.sub s 0 10) truncated;
  mutate "truncated directory" (fun s -> String.sub s 0 40) truncated;
  (* 24 * 2^60 wraps to 0 in OCaml's 63-bit ints *)
  mutate "universe past the directory"
    (patch_at 8 (fun bs pos ->
         Bytes.set_int64_le bs pos (Int64.shift_left 1L 60)))
    truncated;
  mutate "truncated payload"
    (fun s -> String.sub s 0 (String.length s - 3))
    truncated;
  mutate "trailing bytes" (fun s -> s ^ "xx") corrupt;
  (* item i's directory entry sits at 32 + 24i: (card, offset, length);
     offsets count from the end of the directory *)
  let payload_pos = 32 + (universe * 24) in
  let start item =
    payload_pos + Int64.to_int (String.get_int64_le good (32 + (24 * item) + 8))
  in
  (* item 0 holds every tid: dense, 9 words, 500 mod 62 = 4 bits used in
     the last; item 1 holds tids 3, 100, 197, 294, 391, 488: sparse *)
  let words = Bitset.words_for n in
  mutate "slice length disagrees with the card"
    (patch_at (32 + 16) (fun bs pos -> Bytes.set_int64_le bs pos 8L))
    corrupt;
  mutate "dense word out of range"
    (set_byte (start 0 + 7) 0x80)
    corrupt;
  mutate "tail bit past the last transaction"
    (set_byte (start 0 + (8 * (words - 1))) 0x1f)
    corrupt;
  mutate "popcount disagrees with the card"
    (set_byte (start 0) 0xfe)
    corrupt;
  mutate "sparse tids not increasing"
    (patch_at (start 1 + 4) (fun bs pos -> Bytes.set_int32_le bs pos 3l))
    corrupt;
  mutate "sparse tid past n"
    (patch_at (start 1 + 20) (fun bs pos -> Bytes.set_int32_le bs pos (-1l)))
    corrupt

(* --- streaming conversion ------------------------------------------- *)

let check_payloads cf db =
  let n = Db.length db and vt = Vertical.of_db db in
  for item = 0 to Db.universe db - 1 do
    Alcotest.(check int)
      (Printf.sprintf "item %d card" item)
      (Vertical.item_count vt item)
      (Colfile.item_count cf item);
    Alcotest.(check (array int))
      (Printf.sprintf "item %d payload" item)
      (stored ~n (Vertical.tidset_tids (Vertical.item_tidset vt item)))
      (Colfile.payload cf item)
  done

let test_convert_fimi () =
  with_temp @@ fun src ->
  with_temp @@ fun dst ->
  (* dense, sparse and empty-tailed items across many words, FIMI format *)
  let n = 5000 in
  let universe = 7 in
  let db =
    Db.create ~universe
      (Array.init n (fun tid ->
           Itemset.of_list
             (List.filter
                (fun item ->
                  match item mod 3 with
                  | 0 -> true
                  | 1 -> tid mod (item + 2) = 0
                  | _ -> tid < 50)
                (List.init universe Fun.id))))
  in
  Io.write_fimi src db;
  let stats = Colfile.convert ~src ~dst () in
  Alcotest.(check int) "transactions" n stats.Colfile.cv_transactions;
  Alcotest.(check int) "universe" universe stats.Colfile.cv_universe;
  let cf = Colfile.open_file dst in
  Fun.protect ~finally:(fun () -> Colfile.close cf) (fun () -> check_payloads cf db)

let test_convert_header_format_and_errors () =
  with_temp @@ fun src ->
  with_temp @@ fun dst ->
  let db =
    Db.create ~universe:4
      [| Itemset.of_list [ 0; 2 ]; Itemset.of_list [ 1 ]; Itemset.of_list [] |]
  in
  Io.write_file src db;
  let stats = Colfile.convert ~src ~dst () in
  Alcotest.(check int) "header universe" 4 stats.Colfile.cv_universe;
  Alcotest.(check int) "header transactions" 3 stats.Colfile.cv_transactions;
  let cf = Colfile.open_file dst in
  Fun.protect ~finally:(fun () -> Colfile.close cf) (fun () -> check_payloads cf db);
  (* a universe override that disagrees with the header is the documented
     Failure, not silence *)
  (match Colfile.convert ~universe:9 ~src ~dst () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "universe/header disagreement accepted");
  Alcotest.check_raises "universe 0"
    (Invalid_argument "Colfile.convert: universe must be positive") (fun () ->
      ignore (Colfile.convert ~universe:0 ~src ~dst ()));
  with_temp @@ fun fimi ->
  Io.write_fimi fimi db;
  (* the second pass must see the rows the first one counted: cut the
     line stream so the first pass reads all 3 rows and its EOF, and the
     second only 1 row *)
  Io.inject_read_truncation ~lines:5;
  (match
     Fun.protect ~finally:Io.clear_fault_injection (fun () ->
         Colfile.convert ~src:fimi ~dst ())
   with
  | exception Failure msg ->
      Alcotest.(check string) "changed between passes"
        "the source changed between convert's two passes (it must be a \
         file, not a pipe)"
        msg
  | _ -> Alcotest.fail "a source that shrank between the passes accepted");
  (* FIMI items past an explicit universe surface as the typed error *)
  match Colfile.convert ~universe:2 ~src:fimi ~dst () with
  | exception Io.Item_out_of_universe { item = 2; universe = 2 } -> ()
  | _ -> Alcotest.fail "out-of-universe item accepted"

let test_fold_transactions () =
  with_temp @@ fun path ->
  (* empty file: zero transactions over the fallback universe *)
  write_bytes path "";
  let count, info =
    Io.fold_transactions path ~init:0 ~f:(fun acc _ -> acc + 1)
  in
  Alcotest.(check int) "empty count" 0 count;
  Alcotest.(check int) "empty universe" 1 info.Io.universe;
  (* FIMI mode infers the universe and folds every line *)
  write_bytes path "3 1\n\n7 2\n";
  let sizes, info =
    Io.fold_transactions path ~init:[] ~f:(fun acc tx ->
        Itemset.cardinal tx :: acc)
  in
  Alcotest.(check (list int)) "fimi sizes" [ 2; 0; 2 ] (List.rev sizes);
  Alcotest.(check int) "fimi inferred universe" 8 info.Io.universe;
  Alcotest.(check int) "fimi transactions" 3 info.Io.transactions

(* --- columnar load end to end ---------------------------------------- *)

let test_of_colfile_mining () =
  with_temp @@ fun src ->
  with_temp @@ fun dst ->
  let db =
    Db.create ~universe:6
      (Array.init 700 (fun tid ->
           Itemset.of_list
             (List.filter
                (fun item -> (tid + item) mod (2 + item) = 0)
                [ 0; 1; 2; 3; 4; 5 ])))
  in
  (* header format: some transactions are empty, which FIMI cannot carry
     unambiguously *)
  Io.write_file src db;
  ignore (Colfile.convert ~src ~dst ());
  let cf = Colfile.open_file dst in
  Fun.protect
    ~finally:(fun () -> Colfile.close cf)
    (fun () ->
      let vt = Vertical.of_colfile cf in
      let from_file = Apriori.mine_vertical vt ~min_support:0.05 in
      let from_ram = Apriori.mine db ~min_support:0.05 in
      Alcotest.(check bool) "colfile mining = in-RAM mining" true
        (from_file = from_ram);
      (* the round-trip back to row-major is exact *)
      let back = Vertical.to_db vt in
      Alcotest.(check bool) "to_db inverts the transpose" true
        (Array.for_all2 Itemset.equal (Db.transactions db)
           (Db.transactions back)));
  (* A file written item by item loads into exactly what [of_db] builds:
     n = 620 puts the 1/62 density cutoff at 10 transactions, so item 0
     (10 tids) must go dense and item 1 (9 tids) sparse, beside a heavy
     item, a sparse one, an empty one and a full one. *)
  let n = 620 in
  let db =
    Db.create ~universe:6
      (Array.init n (fun tid ->
           Itemset.of_list
             (List.filter
                (fun item ->
                  match item with
                  | 0 -> tid mod 62 = 0
                  | 1 -> tid mod 62 = 1 && tid < 9 * 62
                  | 2 -> tid mod 3 = 0
                  | 3 -> tid mod 100 = 7
                  | 4 -> false
                  | _ -> true)
                (List.init 6 Fun.id))))
  in
  let ram = Vertical.of_db db in
  with_temp @@ fun path ->
  Colfile.write path ~n
    (Array.init 6 (fun item -> Vertical.tidset_tids (Vertical.item_tidset ram item)));
  let cf = Colfile.open_file path in
  Fun.protect
    ~finally:(fun () -> Colfile.close cf)
    (fun () ->
      let vt = Vertical.of_colfile cf in
      Alcotest.(check int) "item at the cutoff" 10 (Vertical.item_count vt 0);
      Alcotest.(check bool) "at the cutoff goes dense" true
        (Vertical.tidset_is_dense (Vertical.item_tidset vt 0));
      Alcotest.(check int) "item below the cutoff" 9 (Vertical.item_count vt 1);
      Alcotest.(check bool) "below the cutoff goes sparse" false
        (Vertical.tidset_is_dense (Vertical.item_tidset vt 1));
      Alcotest.(check int) "dense items" (Vertical.dense_items ram)
        (Vertical.dense_items vt);
      Alcotest.(check int) "sparse items" (Vertical.sparse_items ram)
        (Vertical.sparse_items vt);
      Alcotest.(check int) "resident bytes" (Vertical.resident_bytes ram)
        (Vertical.resident_bytes vt);
      for item = 0 to 5 do
        Alcotest.(check bool)
          (Printf.sprintf "item %d shape" item)
          (Vertical.tidset_is_dense (Vertical.item_tidset ram item))
          (Vertical.tidset_is_dense (Vertical.item_tidset vt item))
      done;
      let candidates =
        List.concat_map
          (fun a -> List.init 6 (fun b -> Itemset.of_list [ a; b ]))
          (List.init 6 Fun.id)
        @ [ Itemset.of_list [ 0; 2; 5 ]; Itemset.of_list [ 1; 3; 5 ] ]
      in
      Alcotest.(check (list (pair string int))) "counts"
        (List.map
           (fun (s, c) -> (Itemset.to_string s, c))
           (Vertical.support_counts ram candidates))
        (List.map
           (fun (s, c) -> (Itemset.to_string s, c))
           (Vertical.support_counts vt candidates)))

let suite =
  [
    Alcotest.test_case "last_word_mask" `Quick test_last_word_mask;
    Alcotest.test_case "colfile round-trip" `Quick test_colfile_roundtrip;
    Alcotest.test_case "colfile corruption" `Quick test_colfile_corruption;
    Alcotest.test_case "convert fimi" `Quick test_convert_fimi;
    Alcotest.test_case "convert header + errors" `Quick
      test_convert_header_format_and_errors;
    Alcotest.test_case "fold_transactions" `Quick test_fold_transactions;
    Alcotest.test_case "of_colfile mining" `Quick test_of_colfile_mining;
  ]
