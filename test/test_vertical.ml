(* Vertical counting engine tests: representation choice, intersection
   kernels against a reference, engine-vs-trie-vs-brute-force parity,
   tid-range sharding determinism, word-boundary widths, and the
   zero-allocation steady state. *)

open Ppdm_data
open Ppdm_mining
open Ppdm_runtime

let mk universe rows =
  Db.create ~universe (Array.of_list (List.map Itemset.of_list rows))

let pp_result l =
  String.concat "; "
    (List.map (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c) l)

let check_same_result msg expected actual =
  Alcotest.(check string) msg (pp_result expected) (pp_result actual)

(* A database of [n] transactions where item [i]'s tid-set is given
   explicitly — the transpose of the tid-set table, so [load] must get
   back exactly what we wrote down. *)
let db_of_tidsets ~universe ~n tidsets =
  let rows = Array.make n [] in
  List.iteri
    (fun item tids -> List.iter (fun tid -> rows.(tid) <- item :: rows.(tid)) tids)
    tidsets;
  Db.create ~universe (Array.map Itemset.of_list rows)

let test_representation_choice () =
  let n = 200 in
  (* item 0 in every transaction, item 1 in 10, item 2 in exactly 2:
     with the default cutoff 1/62 the break-even is n/62 ~ 3.2. *)
  let db =
    db_of_tidsets ~universe:3 ~n
      [ List.init n Fun.id; List.init 10 (fun i -> 7 * i); [ 5; 150 ] ]
  in
  let vt = Vertical.of_db db in
  Alcotest.(check bool) "hot item is dense" true
    (Vertical.tidset_is_dense (Vertical.item_tidset vt 0));
  Alcotest.(check bool) "mid item is dense" true
    (Vertical.tidset_is_dense (Vertical.item_tidset vt 1));
  Alcotest.(check bool) "rare item is sparse" false
    (Vertical.tidset_is_dense (Vertical.item_tidset vt 2));
  Alcotest.(check int) "dense count" 2 (Vertical.dense_items vt);
  Alcotest.(check int) "sparse count" 1 (Vertical.sparse_items vt);
  (* cutoff 0: everything dense; cutoff above 1: nothing is *)
  let all_dense = Vertical.of_db ~dense_cutoff:0. db in
  Alcotest.(check int) "cutoff 0 makes all dense" 3
    (Vertical.dense_items all_dense);
  let none_dense = Vertical.of_db ~dense_cutoff:1.1 db in
  Alcotest.(check int) "cutoff 1.1 makes none dense" 0
    (Vertical.dense_items none_dense);
  Alcotest.check_raises "negative cutoff rejected"
    (Invalid_argument "Vertical.of_db: dense_cutoff must be >= 0") (fun () ->
      ignore (Vertical.of_db ~dense_cutoff:(-0.1) db))

(* Every intersection kernel pair (dense/dense, dense/sparse,
   sparse/dense, sparse/sparse) against the sorted-array reference, on
   random tid-sets straddling several word boundaries.  Each operand's
   shape is forced through [of_db]'s cutoff: 0 makes every item dense,
   1.1 none. *)
let test_inter_kernels_vs_reference () =
  let n = 150 in
  let rng = Ppdm_prng.Rng.create ~seed:404 () in
  for round = 1 to 25 do
    let random_tids () =
      List.filter (fun _ -> Ppdm_prng.Rng.int rng 3 = 0) (List.init n Fun.id)
    in
    let ta = random_tids () and tb = random_tids () in
    let reference =
      Array.of_list (List.filter (fun t -> List.mem t tb) ta)
    in
    let db = db_of_tidsets ~universe:2 ~n [ ta; tb ] in
    let shaped dense =
      Vertical.of_db ~dense_cutoff:(if dense then 0. else 1.1) db
    in
    let all_dense = shaped true and all_sparse = shaped false in
    let tidset dense item =
      Vertical.item_tidset (if dense then all_dense else all_sparse) item
    in
    List.iter
      (fun (da, db_) ->
        let a = tidset da 0 and b = tidset db_ 1 in
        Alcotest.(check (pair bool bool))
          "operand shapes" (da, db_)
          (Vertical.tidset_is_dense a, Vertical.tidset_is_dense b);
        let joint, card = Vertical.inter_tidsets a b in
        let label = Printf.sprintf "round %d %b/%b" round da db_ in
        Alcotest.(check int)
          (label ^ " cardinality") (Array.length reference) card;
        Alcotest.(check (array int))
          (label ^ " tids") reference (Vertical.tidset_tids joint))
      [ (true, true); (true, false); (false, true); (false, false) ]
  done

let test_support_counts_vs_trie () =
  let rng = Ppdm_prng.Rng.create ~seed:2024 () in
  for round = 1 to 10 do
    let universe = 8 + Ppdm_prng.Rng.int rng 5 in
    let n = 1 + Ppdm_prng.Rng.int rng 200 in
    let rows =
      List.init n (fun _ ->
          List.filter
            (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
            (List.init universe Fun.id))
    in
    let db = mk universe rows in
    let vt = Vertical.of_db db in
    (* all small itemsets as candidates, including never-occurring ones *)
    let candidates =
      List.concat_map
        (fun k ->
          Itemset.subsets_of_size
            (Itemset.of_list (List.init universe Fun.id))
            k)
        [ 1; 2; 3 ]
    in
    check_same_result
      (Printf.sprintf "round %d: vertical = trie" round)
      (Ppdm_check.Count.support_counts db candidates)
      (Vertical.support_counts vt candidates)
  done

let test_mine_parity_and_brute_force () =
  let rng = Ppdm_prng.Rng.create ~seed:77 () in
  for round = 1 to 8 do
    let universe = 6 + Ppdm_prng.Rng.int rng 4 in
    let n = 1 + Ppdm_prng.Rng.int rng 120 in
    let rows =
      List.init n (fun _ ->
          List.filter
            (fun _ -> Ppdm_prng.Rng.int rng 4 = 0)
            (List.init universe Fun.id))
    in
    let db = mk universe rows in
    let min_support = 0.05 +. (0.1 *. float_of_int (round mod 3)) in
    let brute =
      Ppdm_check.Oracle.brute_force_frequent ~max_size:4 db ~min_support
    in
    check_same_result
      (Printf.sprintf "round %d: vertical mine = brute force" round)
      brute
      (Apriori.mine ~max_size:4 db ~min_support);
    check_same_result
      (Printf.sprintf "round %d: trie-reference mine = brute force" round)
      brute
      (Ppdm_check.Oracle.trie_apriori ~max_size:4 db ~min_support)
  done

(* 61 and 62 rows straddle the old Auto rule, which fell back to the
   trie below one full bitmap word.  Every route must mine the same bytes
   on both sides: the default Apriori, the Auto alias, the parallel miner
   at jobs 1 and 2, and the oracle's trie-reference Apriori. *)
let test_old_auto_boundary () =
  let rng = Ppdm_prng.Rng.create ~seed:61 () in
  let min_support = 0.05 in
  List.iter
    (fun n ->
      let rows =
        List.init n (fun _ ->
            List.filter
              (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
              (List.init 8 Fun.id))
      in
      let db = mk 8 rows in
      let reference = Ppdm_check.Oracle.trie_apriori db ~min_support in
      Alcotest.(check bool)
        (Printf.sprintf "%d rows: reference reaches level 2" n)
        true
        (List.exists (fun (s, _) -> Itemset.cardinal s >= 2) reference);
      let check label got =
        check_same_result (Printf.sprintf "%d rows: %s" n label) reference got
      in
      check "default" (Apriori.mine db ~min_support);
      check "auto alias"
        (Pool.with_pool ~jobs:1 (fun pool ->
             Parallel.apriori_mine pool ~counter:Apriori.Auto db ~min_support));
      List.iter
        (fun jobs ->
          check
            (Printf.sprintf "parallel jobs=%d" jobs)
            (Pool.with_pool ~jobs (fun pool ->
                 Parallel.apriori_mine pool db ~min_support)))
        [ 1; 2 ])
    [ 61; 62 ]

(* Word-boundary widths: tid-sets exactly at, one past, and at double the
   word width, with the last tid set so tail-word handling shows. *)
let test_boundary_widths () =
  List.iter
    (fun n ->
      let db =
        db_of_tidsets ~universe:3 ~n
          [
            List.init n Fun.id;
            (* every transaction *)
            [ 0; n - 1 ];
            (* both ends *)
            List.filter (fun t -> t mod 2 = 0) (List.init n Fun.id);
          ]
      in
      let vt = Vertical.of_db db in
      Alcotest.(check int)
        (Printf.sprintf "n=%d word count" n)
        ((n + 61) / 62) (Vertical.word_count vt);
      let count s = Vertical.support_count vt (Itemset.of_list s) in
      Alcotest.(check int) (Printf.sprintf "n=%d full item" n) n (count [ 0 ]);
      Alcotest.(check int) (Printf.sprintf "n=%d ends" n) 2 (count [ 1 ]);
      Alcotest.(check int)
        (Printf.sprintf "n=%d ends pair" n)
        2
        (count [ 0; 1 ]);
      Alcotest.(check int)
        (Printf.sprintf "n=%d evens pair" n)
        ((n + 1) / 2)
        (count [ 0; 2 ]);
      Alcotest.(check int)
        (Printf.sprintf "n=%d triple" n)
        (if (n - 1) mod 2 = 0 then 2 else 1)
        (count [ 0; 1; 2 ]))
    [ 62; 63; 124 ]

let test_trie_parity_edge_cases () =
  let db = mk 4 [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 2 ] ] in
  let vt = Vertical.of_db db in
  (* out-of-universe items count 0 (trie parity), empty candidates raise *)
  let ghost = Itemset.of_list [ 1; 9 ] in
  Alcotest.(check int) "out-of-universe candidate counts 0" 0
    (Vertical.support_count vt ghost);
  check_same_result "mixed batch matches trie"
    (Ppdm_check.Count.support_counts db [ ghost; Itemset.of_list [ 0; 1 ] ])
    (Vertical.support_counts vt [ ghost; Itemset.of_list [ 0; 1 ] ]);
  Alcotest.check_raises "empty candidate rejected"
    (Invalid_argument "Vertical.prepare: empty candidate") (fun () ->
      ignore (Vertical.support_counts vt [ Itemset.empty ]));
  (* duplicate candidates collapse, as the trie's idempotent add *)
  let twice = [ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 0; 1 ] ] in
  Alcotest.(check int) "duplicates deduplicated" 1
    (List.length (Vertical.support_counts vt twice))

(* Tid-range sharding: per-window counts must sum to the full count for
   any window split, and the parallel driver must return bit-identical
   results at every job count. *)
let test_word_window_sums () =
  let rng = Ppdm_prng.Rng.create ~seed:5150 () in
  let universe = 10 and n = 400 in
  let rows =
    List.init n (fun _ ->
        List.filter
          (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
          (List.init universe Fun.id))
  in
  let db = mk universe rows in
  let vt = Vertical.of_db db in
  let candidates =
    List.concat_map
      (fun k ->
        Itemset.subsets_of_size (Itemset.of_list (List.init universe Fun.id)) k)
      [ 1; 2; 3; 4 ]
  in
  let prepared = Vertical.prepare candidates in
  let full = Vertical.count_into vt prepared in
  let nw = Vertical.word_count vt in
  List.iter
    (fun chunk ->
      let totals = Array.make (Vertical.prepared_length prepared) 0 in
      let pos = ref 0 in
      while !pos < nw do
        let hi = min nw (!pos + chunk) in
        let part = Vertical.count_into vt ~word_lo:!pos ~word_hi:hi prepared in
        Array.iteri (fun i c -> totals.(i) <- totals.(i) + c) part;
        pos := hi
      done;
      Alcotest.(check (array int))
        (Printf.sprintf "chunk=%d windows sum to full" chunk)
        full totals)
    [ 1; 2; 3; 7 ]

let test_parallel_sharding_determinism () =
  let rng = Ppdm_prng.Rng.create ~seed:31337 () in
  let universe = 12 and n = 500 in
  let rows =
    List.init n (fun _ ->
        List.filter
          (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
          (List.init universe Fun.id))
  in
  let db = mk universe rows in
  let vt = Vertical.of_db db in
  let candidates =
    List.concat_map
      (fun k ->
        Itemset.subsets_of_size (Itemset.of_list (List.init universe Fun.id)) k)
      [ 1; 2; 3 ]
  in
  let sequential = Vertical.support_counts vt candidates in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (* chunk of 2 words forces real multi-window sharding even on a
             500-transaction database *)
          check_same_result
            (Printf.sprintf "sharded counts at jobs=%d" jobs)
            sequential
            (Parallel.support_counts_vertical pool ~chunk:2 vt candidates);
          check_same_result
            (Printf.sprintf "parallel vertical mine at jobs=%d" jobs)
            (Apriori.mine db ~min_support:0.05 ~max_size:3)
            (Parallel.apriori_mine pool ~chunk:2 db ~min_support:0.05
               ~max_size:3)))
    [ 1; 2; 4 ]

(* Kernel differential: on widths one short of a word, exactly a word,
   one past it, two words, and a 4096-tid run — with all-one words,
   all-zero words, alternating bits, window endpoints, and a genuinely
   sparse item — the vertical kernels must agree with the trie, for
   every representation mix. *)
let test_kernel_differential () =
  List.iter
    (fun n ->
      let db =
        db_of_tidsets ~universe:5 ~n
          [
            List.init n Fun.id;
            [];
            List.filter (fun t -> t mod 2 = 0) (List.init n Fun.id);
            [ 0; n - 1 ];
            List.filter (fun t -> t mod 97 = 0) (List.init n Fun.id);
          ]
      in
      let candidates =
        List.concat_map
          (fun k ->
            Itemset.subsets_of_size (Itemset.of_list (List.init 5 Fun.id)) k)
          [ 1; 2; 3 ]
      in
      let reference = Ppdm_check.Count.support_counts db candidates in
      List.iter
        (fun cutoff ->
          let vt =
            match cutoff with
            | None -> Vertical.of_db db
            | Some c -> Vertical.of_db ~dense_cutoff:c db
          in
          check_same_result
            (Printf.sprintf "n=%d cutoff=%s" n
               (match cutoff with
               | None -> "default"
               | Some c -> string_of_float c))
            reference
            (Vertical.support_counts vt candidates))
        [ None; Some 0.; Some 1.1 ])
    [ 61; 62; 63; 124; 4096 ]

(* Candidate columns: a [cand_lo, cand_hi) restriction returns exactly
   that slice of the full result, columns concatenate, and 2-D cells
   (word window x candidate column) sum back to the full counts. *)
let test_candidate_ranges () =
  let rng = Ppdm_prng.Rng.create ~seed:616 () in
  let universe = 9 and n = 300 in
  let rows =
    List.init n (fun _ ->
        List.filter
          (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
          (List.init universe Fun.id))
  in
  let db = mk universe rows in
  let vt = Vertical.of_db db in
  let candidates =
    List.concat_map
      (fun k ->
        Itemset.subsets_of_size (Itemset.of_list (List.init universe Fun.id)) k)
      [ 1; 2; 3 ]
  in
  let prepared = Vertical.prepare candidates in
  let len = Vertical.prepared_length prepared in
  let full = Vertical.count_into vt prepared in
  let parts = ref [] in
  let pos = ref 0 in
  while !pos < len do
    let hi = min len (!pos + 5) in
    parts := Vertical.count_into vt ~cand_lo:!pos ~cand_hi:hi prepared :: !parts;
    pos := hi
  done;
  Alcotest.(check (array int))
    "columns concatenate" full
    (Array.concat (List.rev !parts));
  let nw = Vertical.word_count vt in
  let totals = Array.make len 0 in
  let wpos = ref 0 in
  while !wpos < nw do
    let whi = min nw (!wpos + 3) in
    let cpos = ref 0 in
    while !cpos < len do
      let chi = min len (!cpos + 7) in
      let base = !cpos in
      let part =
        Vertical.count_into vt ~word_lo:!wpos ~word_hi:whi ~cand_lo:base
          ~cand_hi:chi prepared
      in
      Array.iteri (fun i c -> totals.(base + i) <- totals.(base + i) + c) part;
      cpos := chi
    done;
    wpos := whi
  done;
  Alcotest.(check (array int)) "2-D cells sum to full" full totals;
  Alcotest.(check (array int)) "empty column" [||]
    (Vertical.count_into vt ~cand_lo:3 ~cand_hi:3 prepared);
  Alcotest.check_raises "candidate range out of range"
    (Invalid_argument "Vertical.count_into: candidate range out of range")
    (fun () ->
      ignore (Vertical.count_into vt ~cand_lo:0 ~cand_hi:(len + 1) prepared))

let test_eclat_hybrid_parity () =
  let rng = Ppdm_prng.Rng.create ~seed:808 () in
  for round = 1 to 6 do
    let universe = 6 + Ppdm_prng.Rng.int rng 5 in
    let n = 1 + Ppdm_prng.Rng.int rng 150 in
    let rows =
      List.init n (fun _ ->
          List.filter
            (fun _ -> Ppdm_prng.Rng.int rng 3 = 0)
            (List.init universe Fun.id))
    in
    let db = mk universe rows in
    check_same_result
      (Printf.sprintf "round %d: eclat on hybrid tid-sets = apriori" round)
      (Apriori.mine ~max_size:4 db ~min_support:0.1)
      (Ppdm_check.Eclat.mine ~max_size:4 db ~min_support:0.1)
  done

(* The steady-state promise: once the scratch is warm, re-counting a
   batch allocates nothing (observed through the engine's own alloc
   counter, which ticks on every buffer growth). *)
let test_scratch_zero_alloc_steady_state () =
  let rng = Ppdm_prng.Rng.create ~seed:909 () in
  let universe = 10 and n = 300 in
  let rows =
    List.init n (fun _ ->
        List.filter
          (fun _ -> Ppdm_prng.Rng.int rng 2 = 0)
          (List.init universe Fun.id))
  in
  let db = mk universe rows in
  let vt = Vertical.of_db db in
  let scratch = Vertical.make_scratch vt in
  let candidates =
    List.concat_map
      (fun k ->
        Itemset.subsets_of_size (Itemset.of_list (List.init universe Fun.id)) k)
      [ 2; 3; 4 ]
  in
  (* warm pass: buffers grow here *)
  ignore (Vertical.support_counts ~scratch vt candidates);
  Ppdm_obs.Metrics.reset ();
  Ppdm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      Ppdm_obs.Metrics.reset ())
    (fun () ->
      ignore (Vertical.support_counts ~scratch vt candidates);
      let snapshot = Ppdm_obs.Metrics.snapshot () in
      let counter name =
        match List.assoc_opt name snapshot.Ppdm_obs.Metrics.counters with
        | Some v -> v
        | None -> 0
      in
      Alcotest.(check bool)
        "candidates were counted" true
        (counter "vertical.candidates" = List.length candidates);
      Alcotest.(check int)
        "warm scratch allocates nothing" 0
        (counter "vertical.scratch.allocs");
      Alcotest.(check bool)
        "bytes-touched counter ticks" true
        (counter "vertical.words.touched" > 0))

let suite =
  [
    Alcotest.test_case "adaptive representation choice" `Quick
      test_representation_choice;
    Alcotest.test_case "intersection kernels vs reference" `Quick
      test_inter_kernels_vs_reference;
    Alcotest.test_case "support counts match the trie" `Quick
      test_support_counts_vs_trie;
    Alcotest.test_case "mine parity with brute force" `Quick
      test_mine_parity_and_brute_force;
    Alcotest.test_case "old auto boundary: routes agree" `Quick
      test_old_auto_boundary;
    Alcotest.test_case "word-boundary widths 62/63/124" `Quick
      test_boundary_widths;
    Alcotest.test_case "trie parity edge cases" `Quick
      test_trie_parity_edge_cases;
    Alcotest.test_case "word windows sum to full counts" `Quick
      test_word_window_sums;
    Alcotest.test_case "tid-range sharding determinism at jobs 1/2/4" `Quick
      test_parallel_sharding_determinism;
    Alcotest.test_case "kernels differential on width classes" `Quick
      test_kernel_differential;
    Alcotest.test_case "candidate ranges slice and concatenate" `Quick
      test_candidate_ranges;
    Alcotest.test_case "eclat hybrid tid-set parity" `Quick
      test_eclat_hybrid_parity;
    Alcotest.test_case "warm scratch allocates nothing" `Quick
      test_scratch_zero_alloc_steady_state;
  ]
