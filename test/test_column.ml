(* Compressed columnar storage tests: container representation choice and
   round-trips on the word-boundary width classes, bitmap expansion, the
   PPDMC codec (including every corruption class as its typed error), the
   streaming converter, and the columnar load end to end against the
   in-RAM engine. *)

open Ppdm_data
open Ppdm_mining

let bpw = Bitset.bits_per_word

(* The width classes every packed-bitmap bug hides in: one under / at /
   one over a word boundary, a two-word width, and block-boundary widths
   (Column.block_bits = 3968). *)
let widths = [ 1; 61; 62; 63; 124; 3967; 3968; 3969; 8000 ]

let words_of_tids ~n tids =
  let words = Array.make (Bitset.words_for n) 0 in
  List.iter
    (fun tid ->
      let w = tid / bpw in
      words.(w) <- words.(w) lor (1 lsl (tid mod bpw)))
    tids;
  words

(* A deterministic pseudo-random tid subset (no global RNG dependency). *)
let scatter ~n ~seed ~period =
  List.filter
    (fun tid -> (tid * 2654435761) lxor seed land 1023 < period)
    (List.init n Fun.id)

let check_tids msg expected col =
  Alcotest.(check (list int)) msg expected (Array.to_list (Column.to_tids col))

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

let test_empty_column () =
  List.iter
    (fun n ->
      let col = Column.of_tids ~n [||] in
      Alcotest.(check int) "cardinal" 0 (Column.cardinal col);
      check_tids "no tids" [] col;
      Alcotest.(check bool) "expands to zero words" true
        (Array.for_all (( = ) 0) (Column.to_words col));
      Array.iter
        (function
          | Column.Empty -> ()
          | _ -> Alcotest.fail "empty column holds a non-empty block")
        (Column.blocks col))
    widths

let test_full_universe_run () =
  List.iter
    (fun n ->
      let all = Array.init n Fun.id in
      let col = Column.of_tids ~n all in
      Alcotest.(check int) "cardinal" n (Column.cardinal col);
      (* one run (4 bytes) beats dense and offsets on every full block
         holding at least 3 tids (below that, two offsets are cheaper) *)
      Array.iteri
        (fun b block ->
          let covered = min n ((b + 1) * Column.block_bits) - (b * Column.block_bits) in
          match block with
          | Column.Runs _ -> ()
          | _ when covered <= 2 -> ()
          | _ ->
              Alcotest.fail
                (Printf.sprintf "full block %d of n=%d not run-encoded" b n))
        (Column.blocks col);
      check_tids "round-trip" (Array.to_list all) col)
    widths

let test_representation_choice () =
  let n = Column.block_bits in
  (* alternating bits: sparse costs 2*1984, runs 4*1984, dense 8*64 --
     dense must win *)
  let alt = List.filter (fun t -> t mod 2 = 0) (List.init n Fun.id) in
  let col = Column.of_tids ~n (Array.of_list alt) in
  Alcotest.(check bool) "alternating goes dense" true
    (Column.rep col 0 = Column.R_dense);
  (* a few scattered tids: sparse (2 bytes each) beats both *)
  let col = Column.of_tids ~n [| 3; 700; 3100 |] in
  Alcotest.(check bool) "scattered goes sparse" true
    (Column.rep col 0 = Column.R_sparse);
  (* two long runs: 8 bytes of runs beat sparse (2*card) and dense *)
  let runs = List.init 600 Fun.id @ List.init 600 (fun i -> 2000 + i) in
  let col = Column.of_tids ~n (Array.of_list runs) in
  Alcotest.(check bool) "long runs go run-length" true
    (Column.rep col 0 = Column.R_run);
  check_tids "runs round-trip" runs col

let test_block_boundaries () =
  (* tids hugging both sides of the first block seam *)
  let n = 2 * Column.block_bits in
  let tids =
    [ 0; Column.block_bits - 1; Column.block_bits; (2 * Column.block_bits) - 1 ]
  in
  let col = Column.of_tids ~n (Array.of_list tids) in
  check_tids "seam round-trip" tids col;
  List.iter
    (fun tid ->
      Alcotest.(check bool) (Printf.sprintf "mem %d" tid) true
        (Column.mem col tid))
    tids;
  Alcotest.(check bool) "absent" false (Column.mem col 1);
  (* expansion windows cut exactly at the seam *)
  let seam_w = Column.block_bits / bpw in
  let n_words = Column.word_count col in
  let window_pop ~wlo ~whi =
    let dst = Array.make n_words 0 in
    Column.write_into col dst ~wlo ~whi;
    Array.fold_left (fun acc w -> acc + Bitset.popcount w) 0 dst
  in
  Alcotest.(check int) "left of seam" 2 (window_pop ~wlo:0 ~whi:seam_w);
  Alcotest.(check int) "right of seam" 2 (window_pop ~wlo:seam_w ~whi:n_words)

let test_of_words_equals_of_tids () =
  List.iter
    (fun n ->
      let tids = scatter ~n ~seed:11 ~period:300 in
      let a = Column.of_tids ~n (Array.of_list tids) in
      let b = Column.of_words ~n (words_of_tids ~n tids) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d of_words = of_tids" n)
        true (Column.equal a b))
    widths

let test_of_blocks_validation () =
  let n = 100 in
  let reject msg blocks =
    match Column.of_blocks ~n blocks with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (msg ^ " accepted")
  in
  reject "wrong block count" [| Column.Empty; Column.Empty |];
  reject "dense word count" [| Column.Dense (Array.make 1 0) |];
  reject "tail bits set" [| Column.Dense (Array.make 2 max_int) |];
  reject "offset out of range" [| Column.Sparse (1, [| 101 |]) |];
  reject "offsets not ascending" [| Column.Sparse (2, [| (7 lsl 16) lor 7 |]) |];
  reject "run out of range" [| Column.Runs [| (99 lsl 16) lor 105 |] |];
  reject "runs adjacent" [| Column.Runs [| (0 lsl 16) lor 5; (5 lsl 16) lor 9 |] |]

(* --- expansion ------------------------------------------------------ *)

let test_write_into_expansion () =
  List.iter
    (fun n ->
      let tids = scatter ~n ~seed:3 ~period:500 in
      let col = Column.of_tids ~n (Array.of_list tids) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d to_words" n)
        true
        (Column.to_words col = words_of_tids ~n tids))
    widths

(* --- the PPDMC codec ------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "ppdm_colfile" ".ppdmc" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let make_columns ~n ~universe =
  Array.init universe (fun item ->
      let tids =
        match item mod 4 with
        | 0 -> List.init n Fun.id (* full: run containers *)
        | 1 -> scatter ~n ~seed:item ~period:50 (* sparse *)
        | 2 -> List.filter (fun t -> t mod 2 = item / 2 mod 2) (List.init n Fun.id)
        | _ -> [] (* empty *)
      in
      Column.of_tids ~n (Array.of_list tids))

let test_colfile_roundtrip () =
  List.iter
    (fun n ->
      with_temp @@ fun path ->
      let universe = 9 in
      let cols = make_columns ~n ~universe in
      Colfile.write path ~n cols;
      let cf = Colfile.open_file path in
      Fun.protect
        ~finally:(fun () -> Colfile.close cf)
        (fun () ->
          Alcotest.(check int) "universe" universe (Colfile.universe cf);
          Alcotest.(check int) "length" n (Colfile.length cf);
          Array.iteri
            (fun item col ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d item %d directory card" n item)
                (Column.cardinal col)
                (Colfile.item_count cf item);
              Alcotest.(check bool)
                (Printf.sprintf "n=%d item %d round-trip" n item)
                true
                (Column.equal col (Colfile.column cf item)))
            cols))
    [ 1; 62; 63; 3968; 8000 ]

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
  let n = 500 in
  Colfile.write path ~n (make_columns ~n ~universe:5);
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
                ignore (Colfile.column cf item)
              done))
    in
    if not (check e) then
      Alcotest.fail
        (Printf.sprintf "%s: wrong error (%s)" what (Colfile.error_message e))
  in
  let set_byte s pos b =
    let bs = Bytes.of_string s in
    Bytes.set bs pos (Char.chr b);
    Bytes.to_string bs
  in
  mutate "bad magic"
    (fun s -> set_byte s 0 (Char.code 'X'))
    (function Colfile.Bad_magic -> true | _ -> false);
  mutate "bad version"
    (fun s -> set_byte s 6 99)
    (function Colfile.Unsupported_version 99 -> true | _ -> false);
  mutate "truncated header"
    (fun s -> String.sub s 0 10)
    (function Colfile.Truncated _ -> true | _ -> false);
  mutate "truncated directory"
    (fun s -> String.sub s 0 40)
    (function Colfile.Truncated _ -> true | _ -> false);
  mutate "truncated payload"
    (fun s -> String.sub s 0 (String.length s - 3))
    (function Colfile.Truncated _ -> true | _ -> false);
  mutate "trailing bytes"
    (fun s -> s ^ "xx")
    (function Colfile.Corrupt _ -> true | _ -> false);
  (* first payload record of item 0 starts right after the directory:
     u32 idx, then the tag byte at +4 *)
  let payload_pos = 32 + (5 * 24) in
  mutate "unknown container tag"
    (fun s -> set_byte s (payload_pos + 4) 7)
    (function Colfile.Corrupt _ -> true | _ -> false);
  mutate "descending block index"
    (fun s -> set_byte s payload_pos 200)
    (function Colfile.Corrupt _ -> true | _ -> false)

(* --- streaming conversion ------------------------------------------- *)

let test_convert_fimi () =
  with_temp @@ fun src ->
  with_temp @@ fun dst ->
  (* tids 0..n-1 across a couple of blocks, FIMI format *)
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
  Fun.protect
    ~finally:(fun () -> Colfile.close cf)
    (fun () ->
      let vt = Vertical.of_db db in
      for item = 0 to universe - 1 do
        let expect = Vertical.item_count vt item in
        Alcotest.(check int)
          (Printf.sprintf "item %d card" item)
          expect
          (Colfile.item_count cf item);
        Alcotest.(check (list int))
          (Printf.sprintf "item %d tids" item)
          (Array.to_list (Vertical.tidset_tids (Vertical.item_tidset vt item)))
          (Array.to_list (Column.to_tids (Colfile.column cf item)))
      done)

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
  (* a universe override that disagrees with the header is the documented
     Failure, not silence *)
  (match Colfile.convert ~universe:9 ~src ~dst () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "universe/header disagreement accepted");
  (* FIMI items past an explicit universe surface as the typed error *)
  with_temp @@ fun fimi ->
  Io.write_fimi fimi db;
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
  (* A file written column by column loads into exactly what [of_db]
     builds: n = 620 puts the 1/62 density cutoff at 10 transactions, so
     item 0 (10 tids) must go dense and item 1 (9 tids) sparse, beside a
     heavy item, a sparse one, an empty one and a full one. *)
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
    (Array.init 6 (fun item ->
         Column.of_tids ~n (Vertical.tidset_tids (Vertical.item_tidset ram item))));
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
    Alcotest.test_case "empty column" `Quick test_empty_column;
    Alcotest.test_case "full-universe run" `Quick test_full_universe_run;
    Alcotest.test_case "representation choice" `Quick test_representation_choice;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "of_words = of_tids" `Quick test_of_words_equals_of_tids;
    Alcotest.test_case "of_blocks validation" `Quick test_of_blocks_validation;
    Alcotest.test_case "write_into expansion" `Quick test_write_into_expansion;
    Alcotest.test_case "colfile round-trip" `Quick test_colfile_roundtrip;
    Alcotest.test_case "colfile corruption" `Quick test_colfile_corruption;
    Alcotest.test_case "convert fimi" `Quick test_convert_fimi;
    Alcotest.test_case "convert header + errors" `Quick
      test_convert_header_format_and_errors;
    Alcotest.test_case "fold_transactions" `Quick test_fold_transactions;
    Alcotest.test_case "of_colfile mining" `Quick test_of_colfile_mining;
  ]
