(* Streaming estimator tests: batch equivalence, merge associativity, and
   online convergence. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm

let setup ~seed =
  let universe = 80 and size = 5 in
  let rng = Rng.create ~seed () in
  let itemset = Itemset.of_list [ 1; 4 ] in
  let db = Simple.planted rng ~universe ~size ~count:5000 ~itemset ~support:0.2 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.05 in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  (scheme, itemset, data)

let test_batch_equivalence () =
  let scheme, itemset, data = setup ~seed:1 in
  let acc = Stream.create ~scheme ~itemset in
  Stream.observe_all acc data;
  let streamed = Stream.estimate acc in
  let batch = Estimator.estimate ~scheme ~data ~itemset in
  Alcotest.(check (float 0.)) "identical support" batch.Estimator.support
    streamed.Estimator.support;
  Alcotest.(check (float 0.)) "identical sigma" batch.Estimator.sigma
    streamed.Estimator.sigma;
  Alcotest.(check int) "counts" (Array.length data) (Stream.observed acc)

let test_merge () =
  let scheme, itemset, data = setup ~seed:2 in
  let whole = Stream.create ~scheme ~itemset in
  Stream.observe_all whole data;
  let n = Array.length data in
  let left = Stream.create ~scheme ~itemset in
  let right = Stream.create ~scheme ~itemset in
  Stream.observe_all left (Array.sub data 0 (n / 2));
  Stream.observe_all right (Array.sub data (n / 2) (n - (n / 2)));
  let merged = Stream.merge [ left; right ] in
  Alcotest.(check int) "merged count" n (Stream.observed merged);
  Alcotest.(check int) "inputs untouched" (n / 2) (Stream.observed left);
  Alcotest.(check (float 0.)) "merged support"
    (Stream.estimate whole).Estimator.support
    (Stream.estimate merged).Estimator.support

let test_merge_nway () =
  (* Stream.merge over k shards equals one accumulator over the whole
     stream, for any shard count *)
  let scheme, itemset, data = setup ~seed:7 in
  let n = Array.length data in
  let whole = Stream.create ~scheme ~itemset in
  Stream.observe_all whole data;
  let expected = Stream.estimate whole in
  List.iter
    (fun k ->
      let shards =
        List.init k (fun i ->
            let lo = i * n / k and hi = (i + 1) * n / k in
            let acc = Stream.create ~scheme ~itemset in
            Stream.observe_all acc (Array.sub data lo (hi - lo));
            acc)
      in
      let merged = Stream.merge shards in
      Alcotest.(check int)
        (Printf.sprintf "count, %d shards" k)
        n (Stream.observed merged);
      let e = Stream.estimate merged in
      Alcotest.(check (float 0.))
        (Printf.sprintf "support, %d shards" k)
        expected.Estimator.support e.Estimator.support;
      Alcotest.(check (float 0.))
        (Printf.sprintf "sigma, %d shards" k)
        expected.Estimator.sigma e.Estimator.sigma;
      (* inputs left untouched: merging again gives the same answer *)
      let again = Stream.estimate (Stream.merge shards) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "re-merge, %d shards" k)
        expected.Estimator.support again.Estimator.support)
    [ 1; 3; 7 ];
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Stream.merge: empty list") (fun () ->
      ignore (Stream.merge []))

let test_merge_mismatch () =
  let scheme, itemset, _ = setup ~seed:3 in
  let a = Stream.create ~scheme ~itemset in
  let b = Stream.create ~scheme ~itemset:(Itemset.singleton 0) in
  Alcotest.check_raises "itemset mismatch"
    (Invalid_argument "Stream.merge: itemset mismatch") (fun () ->
      ignore (Stream.merge [ a; b ]));
  (* a layout kept elsewhere (a server shard's) is checked the same way,
     and its length must be whole size classes *)
  Alcotest.check_raises "add_layout itemset mismatch"
    (Invalid_argument "Stream.add_layout: itemset mismatch") (fun () ->
      Stream.add_layout a ~scheme ~itemset:(Itemset.singleton 0) ~observed:1
        [| 1; 0 |]);
  Alcotest.check_raises "add_layout partial size class"
    (Invalid_argument
       "Stream.add_layout: layout length is not a multiple of k + 1")
    (fun () ->
      Stream.add_layout a ~scheme ~itemset ~observed:1
        (Array.make (Itemset.cardinal itemset + 2) 0));
  Alcotest.(check int) "rejected adds left it untouched" 0 (Stream.observed a)

let test_merge_scheme_mismatch () =
  (* accumulators built under different operator parameters must not
     merge: estimate would invert the wrong transition matrices *)
  let scheme, itemset, data = setup ~seed:8 in
  let universe = 80 in
  let a = Stream.create ~scheme ~itemset in
  Stream.observe_all a (Array.sub data 0 20);
  let noisier = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.2 in
  let b = Stream.create ~scheme:noisier ~itemset in
  Stream.observe_all b (Array.sub data 20 20);
  Alcotest.check_raises "different rho rejected"
    (Invalid_argument "Stream.merge: scheme mismatch") (fun () ->
      ignore (Stream.merge [ a; b ]));
  Alcotest.(check int) "failed merge left its input untouched" 20 (Stream.observed a);
  (* parameters are compared, not names: a scheme round-tripped through
     Scheme_io (different name, same operator) still merges *)
  let sizes =
    List.sort_uniq compare (Array.to_list (Array.map fst data))
  in
  let path = Filename.temp_file "ppdm_stream_scheme" ".txt" in
  let roundtripped =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Scheme_io.write_file path scheme ~sizes;
        Scheme_io.read_file path)
  in
  let c = Stream.create ~scheme:roundtripped ~itemset in
  Stream.observe_all c (Array.sub data 20 20);
  Alcotest.(check int) "round-tripped scheme merges" 40
    (Stream.observed (Stream.merge [ a; c ]))

let test_empty_estimate () =
  let scheme, itemset, _ = setup ~seed:4 in
  let acc = Stream.create ~scheme ~itemset in
  Alcotest.check_raises "no observations"
    (Invalid_argument "Stream.estimate: no observations yet") (fun () ->
      ignore (Stream.estimate acc))

let test_online_convergence () =
  (* sigma shrinks as the stream grows; the estimate homes in on truth *)
  let scheme, itemset, data = setup ~seed:5 in
  let acc = Stream.create ~scheme ~itemset in
  Stream.observe_all acc (Array.sub data 0 500);
  let early = Stream.estimate acc in
  Stream.observe_all acc (Array.sub data 500 (Array.length data - 500));
  let late = Stream.estimate acc in
  Alcotest.(check bool)
    (Printf.sprintf "sigma shrinks: %.4f -> %.4f" early.Estimator.sigma
       late.Estimator.sigma)
    true
    (late.Estimator.sigma < early.Estimator.sigma);
  Alcotest.(check bool)
    (Printf.sprintf "final estimate %.3f near 0.2" late.Estimator.support)
    true
    (Float.abs (late.Estimator.support -. 0.2) < 5. *. late.Estimator.sigma)

let test_estimate_is_pure () =
  let scheme, itemset, data = setup ~seed:6 in
  let acc = Stream.create ~scheme ~itemset in
  Stream.observe_all acc data;
  let a = Stream.estimate acc and b = Stream.estimate acc in
  Alcotest.(check (float 0.)) "estimate does not mutate" a.Estimator.support
    b.Estimator.support;
  Alcotest.(check int) "observed unchanged" (Array.length data) (Stream.observed acc)

(* Shards whose largest sizes differ: merging grows the target to the
   larger layout, in either order, and equals one sequential fold bit for
   bit. *)
let test_merge_grows () =
  let universe = 30 in
  let rng = Rng.create ~seed:11 () in
  let db =
    Db.create ~universe
      (Array.init 900 (fun i ->
           Itemset.of_list (List.init (i mod 10) (fun j -> (i + (3 * j)) mod universe))))
  in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:4 ~rho:0.1 in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  let itemset = Itemset.of_list [ 2; 5 ] in
  let fold rows =
    let acc = Stream.create ~scheme ~itemset in
    Array.iter (fun (size, y) -> Stream.observe acc ~size y) rows;
    acc
  in
  let small = fold (Array.of_list (List.filter (fun (m, _) -> m <= 3) (Array.to_list data)))
  and large = fold (Array.of_list (List.filter (fun (m, _) -> m > 3) (Array.to_list data))) in
  let want = Stream.estimate (fold data) in
  List.iter
    (fun (label, shards) ->
      let got = Stream.estimate (Stream.merge shards) in
      Alcotest.(check (float 0.)) (label ^ " support") want.Estimator.support
        got.Estimator.support;
      Alcotest.(check (float 0.)) (label ^ " sigma") want.Estimator.sigma
        got.Estimator.sigma;
      Alcotest.(check int) (label ^ " N") want.Estimator.n_transactions
        got.Estimator.n_transactions)
    [ ("small then large", [ small; large ]); ("large then small", [ large; small ]) ];
  (* a layout kept elsewhere adds in the same way, growing its target *)
  Stream.add_layout small ~scheme ~itemset ~observed:(Stream.observed large)
    (Stream.counts large);
  Alcotest.(check (float 0.)) "add_layout grows its target" want.Estimator.sigma
    (Stream.estimate small).Estimator.sigma

let test_observe_size_range () =
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:0.7 ~p_add:0.1 in
  let acc = Stream.create ~scheme ~itemset:(Itemset.singleton 1) in
  Stream.observe acc ~size:10 (Itemset.singleton 1);
  List.iter
    (fun size ->
      Alcotest.check_raises (Printf.sprintf "size %d" size)
        (Invalid_argument "Stream.observe: size outside [0, universe]")
        (fun () -> Stream.observe acc ~size Itemset.empty))
    [ -1; 11; max_int ];
  Alcotest.(check int) "rejected sizes not counted" 1 (Stream.observed acc)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"stream = batch on random splits" ~count:30
      (pair small_int (int_range 1 99)) (fun (seed, percent) ->
        let scheme, itemset, data = setup ~seed in
        let n = Array.length data in
        let cut = max 1 (n * percent / 100) in
        let acc = Stream.create ~scheme ~itemset in
        Stream.observe_all acc (Array.sub data 0 cut);
        let other = Stream.create ~scheme ~itemset in
        Stream.observe_all other (Array.sub data cut (n - cut));
        let batch = Estimator.estimate ~scheme ~data ~itemset in
        (Stream.estimate (Stream.merge [ acc; other ])).Estimator.support
        = batch.Estimator.support);
  ]

let suite =
  [
    Alcotest.test_case "batch equivalence" `Quick test_batch_equivalence;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge n-way" `Quick test_merge_nway;
    Alcotest.test_case "merge mismatch" `Quick test_merge_mismatch;
    Alcotest.test_case "merge scheme mismatch" `Quick test_merge_scheme_mismatch;
    Alcotest.test_case "empty estimate" `Quick test_empty_estimate;
    Alcotest.test_case "online convergence" `Quick test_online_convergence;
    Alcotest.test_case "estimate is pure" `Quick test_estimate_is_pure;
    Alcotest.test_case "merge grows to the larger sizes" `Quick test_merge_grows;
    Alcotest.test_case "observe size range" `Quick test_observe_size_range;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
