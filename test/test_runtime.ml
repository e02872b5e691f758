(* Parallel runtime tests: the determinism contract (parallel output
   bit-identical to sequential at any job count) across randomization,
   stream aggregation, counting and mining; plus pool robustness — a worker
   exception must neither kill the pool nor deadlock the batch. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm
open Ppdm_mining
open Ppdm_runtime

let job_counts = [ 1; 2; 4 ]

let setup_db ~seed =
  let rng = Rng.create ~seed () in
  Quest.generate rng
    {
      Quest.default with
      universe = 120;
      n_transactions = 3_000;
      avg_transaction_size = 6.;
      n_patterns = 30;
    }

let scheme_for db =
  Randomizer.cut_and_paste ~universe:(Db.universe db) ~cutoff:4 ~rho:0.03

let check_tagged_equal what a b =
  Alcotest.(check int) (what ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (size, y) ->
      let size', y' = b.(i) in
      if size <> size' || not (Itemset.equal y y') then
        Alcotest.failf "%s: transaction %d differs" what i)
    a

let check_itemsets_equal what a b =
  Alcotest.(check int) (what ^ ": count") (List.length a) (List.length b);
  List.iter2
    (fun (s, c) (s', c') ->
      if not (Itemset.equal s s') || c <> c' then
        Alcotest.failf "%s: itemset mismatch (%s/%d vs %s/%d)" what
          (Itemset.to_string s) c (Itemset.to_string s') c')
    a b

(* Randomization: all job counts produce the same bytes from one seed, and
   a small chunk size exercises multi-chunk scheduling. *)
let test_randomize_determinism () =
  let db = setup_db ~seed:11 in
  let scheme = scheme_for db in
  let results =
    List.map
      (fun jobs ->
        Pool.with_pool ~jobs (fun pool ->
            Parallel.randomize_db_tagged pool ~chunk:128 scheme
              (Rng.create ~seed:5 ()) db))
      job_counts
  in
  match results with
  | base :: rest ->
      List.iteri
        (fun i r ->
          check_tagged_equal
            (Printf.sprintf "jobs=1 vs jobs=%d" (List.nth job_counts (i + 1)))
            base r)
        rest
  | [] -> assert false

(* Counting and mining: the grid-sharded vertical counts reproduce the
   reference trie, and the parallel miner its sequential counterpart,
   exactly. *)
let test_support_counts () =
  let db = setup_db ~seed:31 in
  let candidates = List.map fst (Apriori.mine db ~min_support:0.03 ~max_size:2) in
  Alcotest.(check bool) "have candidates" true (candidates <> []);
  let expected = Ppdm_check.Count.support_counts db candidates in
  let vt = Vertical.of_db db in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            Parallel.support_counts_vertical pool ~chunk:5 vt candidates)
      in
      check_itemsets_equal (Printf.sprintf "counts at jobs=%d" jobs) expected got)
    job_counts

let test_apriori_parallel () =
  let db = setup_db ~seed:41 in
  let expected = Apriori.mine db ~min_support:0.02 ~max_size:3 in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            Parallel.apriori_mine pool ~chunk:5 db ~min_support:0.02
              ~max_size:3)
      in
      check_itemsets_equal (Printf.sprintf "apriori at jobs=%d" jobs) expected got)
    job_counts

(* map_reduce seeding: same seed -> same reduction at every job count,
   different seeds -> different reduction (children really are seeded). *)
let test_map_reduce_determinism () =
  let sum_of ~jobs ~seed =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_reduce pool
          ~rng:(Rng.create ~seed ())
          ~n:10_000 ~chunk:64
          ~map:(fun rng ~pos:_ ~len ->
            let acc = ref 0 in
            for _ = 1 to len do
              acc := !acc + Rng.int rng 1_000
            done;
            !acc)
          ~reduce:( + ) ())
  in
  let base = sum_of ~jobs:1 ~seed:17 in
  Alcotest.(check bool) "non-empty" true (base <> None);
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "sum at jobs=%d" jobs)
        base
        (sum_of ~jobs ~seed:17))
    job_counts;
  Alcotest.(check bool)
    "different seed, different sum" true
    (sum_of ~jobs:2 ~seed:18 <> base)

let test_map_reduce_advances_rng () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let rng = Rng.create ~seed:23 () in
      let draw () =
        Pool.map_reduce pool ~rng ~n:100 ~chunk:10
          ~map:(fun child ~pos:_ ~len:_ -> Rng.int child 1_000_000)
          ~reduce:( + ) ()
      in
      Alcotest.(check bool)
        "consecutive calls see fresh randomness" true
        (draw () <> draw ()))

(* Pool robustness: a worker exception surfaces in the caller after the
   batch drains, and the same pool then runs the next batch normally. *)
let test_pool_survives_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let failing =
        Array.init 16 (fun i ->
            fun () -> if i = 7 then failwith "worker boom" else i)
      in
      Alcotest.check_raises "exception propagates" (Failure "worker boom")
        (fun () -> ignore (Pool.run pool failing));
      (* reuse after the failure: a full map_reduce on the same pool *)
      let total =
        Pool.map_reduce pool
          ~rng:(Rng.create ~seed:1 ())
          ~n:1_000 ~chunk:32
          ~map:(fun _ ~pos ~len ->
            let acc = ref 0 in
            for i = pos to pos + len - 1 do
              acc := !acc + i
            done;
            !acc)
          ~reduce:( + ) ()
      in
      Alcotest.(check (option int)) "pool still works" (Some 499_500) total;
      let again = Pool.run pool (Array.init 8 (fun i -> fun () -> i * i)) in
      Alcotest.(check (array int)) "run works too"
        (Array.init 8 (fun i -> i * i))
        again)

(* Bit-identical mining output at every job count, under a word chunk
   small enough to cut many grid cells. *)
let test_fine_grid_mine_identical () =
  let db = setup_db ~seed:61 in
  let expected =
    Apriori.mine ~counter:Apriori.Vertical db ~min_support:0.02 ~max_size:3
  in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            Parallel.apriori_mine pool ~chunk:7 ~counter:Apriori.Vertical db
              ~min_support:0.02 ~max_size:3)
      in
      check_itemsets_equal (Printf.sprintf "jobs=%d" jobs) expected got)
    [ 1; 2; 4; 8 ]

(* A candidate chunk of 1 forces one grid column per candidate: the
   column-offset reduction is exercised on every cell shape. *)
let test_grid_columns_identical () =
  let db = setup_db ~seed:62 in
  let vt = Vertical.of_db db in
  let candidates =
    List.map fst (Apriori.mine db ~min_support:0.03 ~max_size:2)
  in
  let expected = Vertical.support_counts vt candidates in
  List.iter
    (fun (chunk, cand_chunk) ->
      let got =
        Pool.with_pool ~jobs:4 (fun pool ->
            Parallel.support_counts_vertical pool ~chunk ~cand_chunk vt
              candidates)
      in
      check_itemsets_equal
        (Printf.sprintf "grid %dx%d" chunk cand_chunk)
        expected got)
    [ (5, 1); (1, 7); (13, 13); (1_000_000, 1_000_000) ]

(* Every (word, candidate) pair inside the runs lies in exactly one
   cell, and no cell reaches outside them. *)
let check_cover ~what ~n_words ~runs ~n_candidates (g : Grid.t) =
  let in_runs w = Array.exists (fun (lo, hi) -> lo <= w && w < hi) runs in
  let cover = Array.make_matrix n_words n_candidates 0 in
  Array.iter
    (fun (c : Grid.cell) ->
      if c.Grid.word_hi - c.Grid.word_lo > g.Grid.word_chunk then
        Alcotest.failf "%s: window [%d,%d) wider than %d" what c.Grid.word_lo
          c.Grid.word_hi g.Grid.word_chunk;
      for w = c.Grid.word_lo to c.Grid.word_hi - 1 do
        for q = c.Grid.cand_lo to c.Grid.cand_hi - 1 do
          cover.(w).(q) <- cover.(w).(q) + 1
        done
      done)
    g.Grid.cells;
  Array.iteri
    (fun w row ->
      let want = if in_runs w then 1 else 0 in
      Array.iteri
        (fun q hits ->
          if hits <> want then
            Alcotest.failf "%s: cell (%d,%d) covered %d times" what w q hits)
        row)
    cover

(* Grid planning: exact partition, column-major cell order, and the
   documented defaults. *)
let test_grid_plan () =
  let full = [| (0, 25) |] in
  let g =
    Grid.plan ~word_chunk:10 ~cand_chunk:100 ~runs:full ~n_candidates:250 ()
  in
  Alcotest.(check int) "3 windows x 3 columns" 9 (Array.length g.Grid.cells);
  check_cover ~what:"one run" ~n_words:25 ~runs:full ~n_candidates:250 g;
  let c0 = g.Grid.cells.(0) and c1 = g.Grid.cells.(1) in
  Alcotest.(check (list int))
    "column-major: second cell is the next window of column 0"
    [ 0; 0; 10; 0 ]
    [ c0.Grid.word_lo; c0.Grid.cand_lo; c1.Grid.word_lo; c1.Grid.cand_lo ];
  (* A sample's runs: the 23-word run is cut at the chunk, the others
     are one window each; windows go in run order inside each column. *)
  let runs = [| (2, 5); (7, 30); (40, 41) |] in
  let g =
    Grid.plan ~word_chunk:10 ~cand_chunk:100 ~runs ~n_candidates:250 ()
  in
  Alcotest.(check int) "5 windows x 3 columns" 15 (Array.length g.Grid.cells);
  check_cover ~what:"three runs" ~n_words:45 ~runs ~n_candidates:250 g;
  Alcotest.(check (list (pair int int)))
    "column-major over run windows"
    [ (2, 0); (7, 0); (17, 0); (27, 0); (40, 0); (2, 100); (7, 100) ]
    (List.init 7 (fun i ->
         let c = g.Grid.cells.(i) in
         (c.Grid.word_lo, c.Grid.cand_lo)));
  Alcotest.(check int) "default window sized by the runs' words, not their span"
    (Grid.word_chunk_for ~n_words:164_000 ())
    (Grid.plan ~runs:[| (0, 100_000); (200_000, 264_000) |] ~n_candidates:1 ())
      .Grid.word_chunk;
  Alcotest.(check int) "no words, no cells" 0
    (Array.length (Grid.plan ~runs:[| (0, 0) |] ~n_candidates:5 ()).Grid.cells);
  Alcotest.(check int) "small db keeps the 1-D default" 256
    (Grid.word_chunk_for ~n_words:100 ());
  Alcotest.(check int) "huge db capped by the L2 budget"
    (Grid.default_l2_bytes / 48)
    (Grid.word_chunk_for ~n_words:10_000_000 ());
  Alcotest.(check int) "small batch stays one column" 512
    (Grid.cand_chunk_for ~n_candidates:100);
  Alcotest.(check int) "huge batch capped at 4096" 4096
    (Grid.cand_chunk_for ~n_candidates:1_000_000);
  List.iter
    (fun runs ->
      Alcotest.check_raises "runs must be ascending and disjoint"
        (Invalid_argument "Grid.plan: runs must be ascending and disjoint")
        (fun () -> ignore (Grid.plan ~runs ~n_candidates:1 ())))
    [ [| (-1, 3) |]; [| (3, 2) |]; [| (0, 4); (3, 6) |] ];
  Alcotest.check_raises "word_chunk must be positive"
    (Invalid_argument "Grid.plan: word_chunk must be positive") (fun () ->
      ignore (Grid.plan ~word_chunk:0 ~runs:[| (0, 1) |] ~n_candidates:1 ()));
  Alcotest.check_raises "l2_bytes must be positive"
    (Invalid_argument "Grid: l2_bytes must be positive") (fun () ->
      ignore (Grid.word_chunk_for ~l2_bytes:0 ~n_words:1 ()))

(* Queue-wait accounting: a task's wait must land on the histogram of
   the worker that executed it.  Task 0 parks whichever worker takes it
   until task 1 has run, so the other worker must execute at least one
   task before the batch can finish — and the two per-worker histograms
   must partition the six waits with neither left empty. *)
let test_wait_accounting () =
  Ppdm_obs.Metrics.set_enabled true;
  Ppdm_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      Ppdm_obs.Metrics.reset ())
    (fun () ->
      let unblock = Atomic.make false in
      let timed_out = ref false in
      let task i () =
        if i = 0 then begin
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            (not (Atomic.get unblock)) && Unix.gettimeofday () < deadline
          do
            Domain.cpu_relax ()
          done;
          if not (Atomic.get unblock) then timed_out := true
        end
        else if i = 1 then Atomic.set unblock true
      in
      Pool.with_pool ~jobs:2 (fun pool ->
          ignore (Pool.run pool (Array.init 6 task)));
      Alcotest.(check bool) "the other worker released the parked one" false
        !timed_out;
      let snap = Ppdm_obs.Metrics.snapshot () in
      let hist_count name =
        match List.assoc_opt name snap.Ppdm_obs.Metrics.histograms with
        | Some h -> h.Ppdm_obs.Metrics.count
        | None -> 0
      in
      let w0 = hist_count "pool.queue_wait_ns.w0"
      and w1 = hist_count "pool.queue_wait_ns.w1" in
      Alcotest.(check int) "every wait observed once" 6
        (hist_count "pool.queue_wait_ns");
      Alcotest.(check int) "per-worker waits partition the total" 6 (w0 + w1);
      Alcotest.(check bool) "both workers executed a task" true
        (w0 >= 1 && w1 >= 1))

let test_pool_edge_cases () =
  (* jobs <= 1 spawns nothing and still works; empty inputs are fine *)
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "jobs clamped to 1" 1 (Pool.jobs pool);
      Alcotest.(check (array int)) "empty run" [||] (Pool.run pool [||]);
      Alcotest.(check (option int)) "n=0 map_reduce" None
        (Pool.map_reduce pool
           ~rng:(Rng.create ~seed:1 ())
           ~n:0
           ~map:(fun _ ~pos:_ ~len:_ -> 0)
           ~reduce:( + ) ());
      let empty = Db.create ~universe:5 [||] in
      let store =
        Parallel.randomize pool
          (Randomizer.cut_and_paste ~universe:5 ~cutoff:2 ~rho:0.1)
          (Rng.create ~seed:1 ()) empty
      in
      Alcotest.(check int) "empty database randomizes to no rows" 0
        (Reports.length store));
  (* shutdown is idempotent and the pool degrades to sequential after *)
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (array int)) "post-shutdown run is sequential"
    [| 0; 1; 2 |]
    (Pool.run pool (Array.init 3 Fun.id |> Array.map (fun i -> fun () -> i)))

let test_report_store_differential () =
  let pools = List.map (fun jobs -> Pool.create ~jobs) job_counts in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown pools)
    (fun () ->
      match Ppdm_check.Selftest.report_store_differential ~seed:42 pools with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let suite =
  [
    Alcotest.test_case "report store == sequential apply and old transpose"
      `Quick test_report_store_differential;
    Alcotest.test_case "randomize determinism across jobs" `Quick
      test_randomize_determinism;
    Alcotest.test_case "support counts parallel = sequential" `Quick
      test_support_counts;
    Alcotest.test_case "apriori parallel = sequential" `Quick
      test_apriori_parallel;
    Alcotest.test_case "map_reduce determinism" `Quick
      test_map_reduce_determinism;
    Alcotest.test_case "map_reduce advances rng" `Quick
      test_map_reduce_advances_rng;
    Alcotest.test_case "pool survives worker exception" `Quick
      test_pool_survives_exception;
    Alcotest.test_case "fine-grid mine = sequential at jobs 1/2/4/8" `Quick
      test_fine_grid_mine_identical;
    Alcotest.test_case "grid columns reduce identically" `Quick
      test_grid_columns_identical;
    Alcotest.test_case "grid plan partitions exactly" `Quick test_grid_plan;
    Alcotest.test_case "queue waits land on the executing worker" `Quick
      test_wait_accounting;
    Alcotest.test_case "pool edge cases" `Quick test_pool_edge_cases;
  ]
