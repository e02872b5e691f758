(* Sampled counting tests: plan geometry, scaling arithmetic, exactness
   at F = 1.0 (byte-identical to the vertical engine, sequential and at
   any job count), sharding determinism at F < 1, and sigma coverage of
   the sampled-vs-exact error across plan seeds. *)

open Ppdm_data
open Ppdm_prng
open Ppdm_mining
open Ppdm_runtime

let pp_result l =
  String.concat "; "
    (List.map (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c) l)

let check_same_result msg expected actual =
  Alcotest.(check string) msg (pp_result expected) (pp_result actual)

(* iid random transactions: word-window cluster sampling then has the
   variance the FPC sigma predicts, and every item lands dense. *)
let random_db ~seed ~universe ~n ~p =
  let rng = Rng.create ~seed () in
  Db.create ~universe
    (Array.init n (fun _ ->
         Itemset.of_list
           (List.filter (fun _ -> Rng.float rng < p) (List.init universe Fun.id))))

let test_plan_geometry () =
  let n = 100 * 62 in
  let word_count = 100 in
  let plan = Sampled.plan ~n ~word_count ~fraction:0.25 ~seed:3 () in
  Alcotest.(check int) "population" n plan.Sampled.population;
  Alcotest.(check bool) "not exhaustive" false (Sampled.is_exhaustive plan);
  (* runs are ascending, disjoint, non-adjacent (else they would have
     been merged), and inside [0, word_count) *)
  let words = ref 0 in
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) "run non-empty" true (lo < hi);
      Alcotest.(check bool) "run in range" true (lo >= 0 && hi <= word_count);
      if i > 0 then begin
        let _, prev_hi = plan.Sampled.runs.(i - 1) in
        Alcotest.(check bool) "runs separated" true (lo > prev_hi)
      end;
      words := !words + hi - lo)
    plan.Sampled.runs;
  (* window granularity 4, fraction 0.25 of 25 windows -> 6 windows *)
  Alcotest.(check int) "selected words" (6 * 4) !words;
  Alcotest.(check int) "sample tids" (!words * 62) plan.Sampled.sample;
  (* same arguments, same plan *)
  let again = Sampled.plan ~n ~word_count ~fraction:0.25 ~seed:3 () in
  Alcotest.(check bool) "deterministic" true (plan = again);
  let other = Sampled.plan ~n ~word_count ~fraction:0.25 ~seed:4 () in
  Alcotest.(check bool) "seed-sensitive" false
    (plan.Sampled.runs = other.Sampled.runs)

let test_plan_partial_last_word () =
  (* 100 words but only 6170 tids: the last word holds 62*100-6170=30
     fewer.  An exhaustive plan must account tids, not words. *)
  let n = (100 * 62) - 30 in
  let plan = Sampled.plan ~n ~word_count:100 ~fraction:1.0 ~seed:0 () in
  Alcotest.(check bool) "exhaustive" true (Sampled.is_exhaustive plan);
  Alcotest.(check int) "sample = population" n plan.Sampled.sample;
  Alcotest.(check int) "single run" 1 (Array.length plan.Sampled.runs);
  (* a tiny fraction still selects at least one window *)
  let tiny = Sampled.plan ~n ~word_count:100 ~fraction:0.001 ~seed:0 () in
  Alcotest.(check bool) "at least one window" true
    (Array.length tiny.Sampled.runs >= 1 && tiny.Sampled.sample > 0);
  Alcotest.(check_raises) "fraction 0 rejected"
    (Invalid_argument "Sampled.plan: fraction out of (0,1]") (fun () ->
      ignore (Sampled.plan ~n ~word_count:100 ~fraction:0. ~seed:0 ()))

let test_scale_count () =
  let plan = { Sampled.population = 1000; sample = 300; fraction = 0.3;
               seed = 0; runs = [| (0, 5) |] } in
  (* 1 * 1000 / 300 = 3.33 -> 3; 2 * 1000 / 300 = 6.67 -> 7;
     the half-way case 0.5 rounds up: 3 * 1000 / 2000 = 1.5 -> 2 *)
  Alcotest.(check int) "round down" 3 (Sampled.scale_count plan 1);
  Alcotest.(check int) "round up" 7 (Sampled.scale_count plan 2);
  let half = { plan with Sampled.population = 1000; sample = 2000 } in
  (* sample > population is not a real plan, but the arithmetic is
     still the documented round-half-up *)
  Alcotest.(check int) "half rounds up" 2 (Sampled.scale_count half 3);
  Alcotest.(check int) "zero stays zero" 0 (Sampled.scale_count plan 0);
  let full = { plan with Sampled.sample = 1000 } in
  Alcotest.(check int) "exhaustive is identity" 123
    (Sampled.scale_count full 123)

let candidates =
  [
    Itemset.of_list [ 0; 1 ];
    Itemset.of_list [ 1; 2 ];
    Itemset.of_list [ 0; 2; 3 ];
    Itemset.of_list [ 4 ];
  ]

let test_exhaustive_equals_vertical () =
  let db = random_db ~seed:11 ~universe:6 ~n:500 ~p:0.4 in
  let vt = Vertical.of_db db in
  let plan =
    Sampled.plan ~n:(Vertical.length vt) ~word_count:(Vertical.word_count vt)
      ~fraction:1.0 ~seed:9 ()
  in
  check_same_result "sampled F=1.0 equals vertical"
    (Vertical.support_counts vt candidates)
    (Sampled.support_counts vt plan candidates);
  (* and through the miner, at several job counts *)
  let exact = Apriori.mine ~counter:Apriori.Vertical db ~min_support:0.05 in
  let sampled =
    Apriori.mine
      ~counter:(Apriori.Sampled { fraction = 1.0; seed = 5 })
      db ~min_support:0.05
  in
  check_same_result "mine F=1.0 equals vertical mine" exact sampled;
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_same_result
            (Printf.sprintf "parallel mine F=1.0 at jobs %d" jobs)
            exact
            (Parallel.apriori_mine pool
               ~counter:(Apriori.Sampled { fraction = 1.0; seed = 5 })
               db ~min_support:0.05)))
    [ 1; 2; 4 ]

let test_sharding_determinism () =
  let db = random_db ~seed:21 ~universe:8 ~n:4000 ~p:0.3 in
  let counter = Apriori.Sampled { fraction = 0.1; seed = 17 } in
  let sequential = Apriori.mine ~counter db ~min_support:0.05 in
  Alcotest.(check bool) "sampled mine is non-trivial" true
    (List.length sequential > 0);
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_same_result
            (Printf.sprintf "parallel sampled equals sequential at jobs %d"
               jobs)
            sequential
            (Parallel.apriori_mine pool ~counter db ~min_support:0.05)))
    [ 1; 2; 4 ];
  (* small chunks cut windows inside runs; sums must not change *)
  Pool.with_pool ~jobs:4 (fun pool ->
      check_same_result "chunk 3 equals sequential" sequential
        (Parallel.apriori_mine pool ~chunk:3 ~counter db ~min_support:0.05))

(* A columnar file mines the same sample as its rows: [of_colfile] and
   [of_db] give equal tid-sets, and the plan depends only on their
   shape, the fraction and the seed. *)
let test_colfile_equals_db () =
  let db = random_db ~seed:61 ~universe:8 ~n:4000 ~p:0.3 in
  let counter = Apriori.Sampled { fraction = 0.1; seed = 42 } in
  let src = Filename.temp_file "ppdm_sampled" ".txt" in
  let dst = Filename.temp_file "ppdm_sampled" ".ppdmc" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; dst ])
    (fun () ->
      Io.write_file src db;
      ignore (Colfile.convert ~src ~dst ());
      let cf = Colfile.open_file dst in
      let vt =
        Fun.protect
          ~finally:(fun () -> Colfile.close cf)
          (fun () -> Vertical.of_colfile cf)
      in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let from_rows =
                Parallel.apriori_mine pool ~counter db ~min_support:0.05
              in
              Alcotest.(check bool) "sampled mine is non-trivial" true
                (List.length from_rows > 0);
              check_same_result
                (Printf.sprintf "of_colfile equals of_db at jobs %d" jobs)
                from_rows
                (Parallel.apriori_mine_vertical pool ~counter vt
                   ~min_support:0.05)))
        [ 1; 4 ])

let test_raw_counts_sum_over_runs () =
  let db = random_db ~seed:31 ~universe:6 ~n:2000 ~p:0.35 in
  let vt = Vertical.of_db db in
  let plan =
    Sampled.plan ~n:(Vertical.length vt) ~word_count:(Vertical.word_count vt)
      ~fraction:0.4 ~seed:2 ()
  in
  let prepared = Vertical.prepare candidates in
  let raw = Sampled.raw_counts vt plan prepared in
  (* reference: count each run independently and sum *)
  let expected = Array.make (Vertical.prepared_length prepared) 0 in
  Array.iter
    (fun (lo, hi) ->
      let part = Vertical.count_into vt ~word_lo:lo ~word_hi:hi prepared in
      Array.iteri (fun i c -> expected.(i) <- expected.(i) + c) part)
    plan.Sampled.runs;
  Alcotest.(check (array int)) "raw counts are run sums" expected raw;
  (* the scaled counts never exceed the population *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "scaled count within population" true
        (Sampled.scale_count plan c <= plan.Sampled.population))
    raw

let test_plan_mismatch_rejected () =
  let db = random_db ~seed:41 ~universe:4 ~n:300 ~p:0.4 in
  let other = random_db ~seed:41 ~universe:4 ~n:301 ~p:0.4 in
  let vt = Vertical.of_db db in
  let plan =
    Sampled.plan ~n:301
      ~word_count:(Vertical.word_count (Vertical.of_db other))
      ~fraction:0.5 ~seed:0 ()
  in
  Alcotest.check_raises "plan for another database rejected"
    (Invalid_argument "Sampled.support_counts: plan built for another database")
    (fun () -> ignore (Sampled.support_counts vt plan candidates))

let test_sigma_coverage () =
  let db = random_db ~seed:51 ~universe:8 ~n:(150 * 62) ~p:0.3 in
  let itemset = Itemset.of_list [ 0; 1 ] in
  (match
     Ppdm_check.Stat.sampled_sigma_coverage ~seeds:30 ~db ~itemset
       ~fraction:0.2 ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p =
    Ppdm_check.Stat.sampled_counts_pvalue ~seeds:30 ~db ~itemset ~fraction:0.2
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled-vs-exact z-test passes (p=%.3g)" p)
    true (p >= 0.001)

let suite =
  [
    Alcotest.test_case "plan geometry" `Quick test_plan_geometry;
    Alcotest.test_case "plan partial last word" `Quick
      test_plan_partial_last_word;
    Alcotest.test_case "scale_count rounding" `Quick test_scale_count;
    Alcotest.test_case "F=1.0 equals vertical" `Quick
      test_exhaustive_equals_vertical;
    Alcotest.test_case "sharding determinism jobs 1/2/4" `Quick
      test_sharding_determinism;
    Alcotest.test_case "columnar sample equals row sample" `Quick
      test_colfile_equals_db;
    Alcotest.test_case "raw counts sum over runs" `Quick
      test_raw_counts_sum_over_runs;
    Alcotest.test_case "plan mismatch rejected" `Quick
      test_plan_mismatch_rejected;
    Alcotest.test_case "sigma coverage across seeds" `Quick
      test_sigma_coverage;
  ]
