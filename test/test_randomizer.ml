(* Randomization-operator tests: exact degenerate behaviours, induced keep
   distributions, and Monte-Carlo agreement of per-transaction transition
   probabilities with the closed form
   p(t -> y) = p_a / C(m,a) * rho^(s-a) * (1-rho)^(n-m-s+a),  a = |t ∩ y|. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_linalg
open Ppdm

let fixed_db rng ~universe ~size ~count =
  Ppdm_datagen.Simple.fixed_size rng ~universe ~size ~count

let test_identity_operator () =
  let rng = Rng.create ~seed:1 () in
  let scheme = Randomizer.uniform ~universe:30 ~p_keep:1. ~p_add:0. in
  let db = fixed_db rng ~universe:30 ~size:5 ~count:50 in
  let out = Randomizer.apply_db scheme rng db in
  Db.iteri
    (fun i tx -> Alcotest.(check bool) "unchanged" true (Itemset.equal tx (Db.get out i)))
    db

let test_erasing_operator () =
  let rng = Rng.create ~seed:2 () in
  let scheme = Randomizer.uniform ~universe:30 ~p_keep:0. ~p_add:0. in
  let tx = Itemset.of_list [ 1; 5; 9 ] in
  Alcotest.(check bool) "empty output" true
    (Itemset.is_empty (Randomizer.apply scheme rng tx))

let test_complementing_operator () =
  let rng = Rng.create ~seed:3 () in
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:0. ~p_add:1. in
  let tx = Itemset.of_list [ 2; 7 ] in
  let out = Randomizer.apply scheme rng tx in
  Alcotest.(check (list int)) "exact complement" [ 0; 1; 3; 4; 5; 6; 8; 9 ]
    (Itemset.to_list out)

let test_output_in_universe () =
  let rng = Rng.create ~seed:4 () in
  let scheme = Randomizer.cut_and_paste ~universe:25 ~cutoff:3 ~rho:0.2 in
  let db = fixed_db rng ~universe:25 ~size:6 ~count:100 in
  let out = Randomizer.apply_db scheme rng db in
  Db.iter
    (fun tx ->
      Itemset.iter
        (fun x -> Alcotest.(check bool) "in universe" true (x >= 0 && x < 25))
        tx)
    out

let test_uniform_induced_dist () =
  let scheme = Randomizer.uniform ~universe:100 ~p_keep:0.3 ~p_add:0.05 in
  let r = Randomizer.resolve scheme ~size:4 in
  Alcotest.(check int) "length" 5 (Array.length r.keep_dist);
  Array.iteri
    (fun j p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "binomial pmf at %d" j)
        (Binomial.binomial_pmf ~n:4 ~p:0.3 j)
        p)
    r.keep_dist;
  Alcotest.(check (float 1e-12)) "rho" 0.05 r.rho;
  Alcotest.(check (float 1e-12)) "expected kept = p_keep" 0.3
    (Randomizer.expected_kept_fraction scheme ~size:4)

let test_cut_and_paste_dist_clipped () =
  (* m = 3 < K = 5: j = min(U{0..5}, 3) puts mass (5-3+1)/6 = 3/6 on j=3 *)
  let scheme = Randomizer.cut_and_paste ~universe:100 ~cutoff:5 ~rho:0.1 in
  let r = Randomizer.resolve scheme ~size:3 in
  Alcotest.(check (array (float 1e-12))) "clipped tail"
    [| 1. /. 6.; 1. /. 6.; 1. /. 6.; 0.5 |]
    r.keep_dist

let test_cut_and_paste_dist_unclipped () =
  (* m = 6 > K = 2: uniform over {0,1,2}, zero above *)
  let scheme = Randomizer.cut_and_paste ~universe:100 ~cutoff:2 ~rho:0.1 in
  let r = Randomizer.resolve scheme ~size:6 in
  let third = 1. /. 3. in
  Alcotest.(check (array (float 1e-12))) "uniform head"
    [| third; third; third; 0.; 0.; 0.; 0. |]
    r.keep_dist

let test_select_a_size_validation () =
  let mk keep_dist =
    Randomizer.select_a_size ~universe:50 ~size:2 ~keep_dist ~rho:0.1
  in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Randomizer: keep_dist length must be size + 1")
    (fun () -> ignore (mk [| 1. |]));
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Randomizer: negative keep probability") (fun () ->
      ignore (mk [| 0.5; 0.6; -0.1 |]));
  Alcotest.check_raises "not normalized"
    (Invalid_argument "Randomizer: keep_dist must sum to 1") (fun () ->
      ignore (mk [| 0.5; 0.6; 0.2 |]));
  let scheme = mk [| 0.2; 0.3; 0.5 |] in
  let rng = Rng.create () in
  Alcotest.(check bool) "applies to its size" true
    (Itemset.cardinal (Randomizer.apply scheme rng (Itemset.of_list [ 1; 2 ])) >= 0);
  Alcotest.(check bool) "rejects other sizes" true
    (match Randomizer.apply scheme rng (Itemset.of_list [ 1; 2; 3 ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_empty_transaction () =
  let rng = Rng.create ~seed:5 () in
  let scheme = Randomizer.cut_and_paste ~universe:20 ~cutoff:3 ~rho:0.25 in
  (* noise still applies to the empty transaction *)
  let sizes =
    Array.init 400 (fun _ ->
        Itemset.cardinal (Randomizer.apply scheme rng Itemset.empty))
  in
  let mean = Stats.mean (Array.map float_of_int sizes) in
  Alcotest.(check bool)
    (Printf.sprintf "noise mean %.2f near 5" mean)
    true
    (Float.abs (mean -. 5.) < 0.6)

let test_kept_fraction_statistics () =
  let rng = Rng.create ~seed:6 () in
  let scheme = Randomizer.cut_and_paste ~universe:200 ~cutoff:4 ~rho:0.02 in
  let m = 8 in
  let expected = Randomizer.expected_kept_fraction scheme ~size:m in
  let db = fixed_db rng ~universe:200 ~size:m ~count:3000 in
  let acc = ref 0 in
  Db.iter
    (fun tx ->
      let out = Randomizer.apply scheme rng tx in
      acc := !acc + Itemset.inter_size tx out)
    db;
  let observed = float_of_int !acc /. float_of_int (3000 * m) in
  Alcotest.(check bool)
    (Printf.sprintf "kept %.3f near %.3f" observed expected)
    true
    (Float.abs (observed -. expected) < 0.02)

let test_noise_rate_statistics () =
  let rng = Rng.create ~seed:7 () in
  let universe = 120 and m = 6 and rho = 0.08 in
  let scheme =
    Randomizer.select_a_size ~universe ~size:m
      ~keep_dist:[| 0.1; 0.1; 0.1; 0.1; 0.2; 0.2; 0.2 |]
      ~rho
  in
  let db = fixed_db rng ~universe ~size:m ~count:3000 in
  let acc = ref 0 in
  Db.iter
    (fun tx ->
      let out = Randomizer.apply scheme rng tx in
      acc := !acc + Itemset.cardinal (Itemset.diff out tx))
    db;
  let observed = float_of_int !acc /. float_of_int (3000 * (universe - m)) in
  Alcotest.(check bool)
    (Printf.sprintf "noise rate %.4f near %.4f" observed rho)
    true
    (Float.abs (observed -. rho) < 0.005)

(* Monte-Carlo check of the closed-form transition probability on a tiny
   universe: randomize one transaction many times and compare the
   frequency of each concrete output set with the formula. *)
let test_transition_probability_formula () =
  let universe = 6 and m = 2 and rho = 0.3 in
  let keep_dist = [| 0.25; 0.35; 0.4 |] in
  let scheme = Randomizer.select_a_size ~universe ~size:m ~keep_dist ~rho in
  let tx = Itemset.of_list [ 1; 4 ] in
  let trials = 200_000 in
  let rng = Rng.create ~seed:8 () in
  let counts = Hashtbl.create 64 in
  for _ = 1 to trials do
    let y = Itemset.to_list (Randomizer.apply scheme rng tx) in
    Hashtbl.replace counts y (1 + Option.value ~default:0 (Hashtbl.find_opt counts y))
  done;
  let closed_form y =
    let ys = Itemset.of_list y in
    let a = Itemset.inter_size tx ys and s = Itemset.cardinal ys in
    keep_dist.(a)
    /. Binomial.choose m a
    *. Float.pow rho (float_of_int (s - a))
    *. Float.pow (1. -. rho) (float_of_int (universe - m - s + a))
  in
  (* check a spread of outputs, including rare ones *)
  let outputs =
    [ []; [ 1 ]; [ 4 ]; [ 0 ]; [ 1; 4 ]; [ 1; 0 ]; [ 0; 2; 3; 5 ]; [ 1; 4; 0 ] ]
  in
  List.iter
    (fun y ->
      let y = List.sort compare y in
      let expected = closed_form y in
      let got =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts y))
        /. float_of_int trials
      in
      let slack = 4. *. sqrt (expected /. float_of_int trials) +. 1e-4 in
      Alcotest.(check bool)
        (Printf.sprintf "p(y=%s): %.5f near %.5f"
           (String.concat "," (List.map string_of_int y))
           got expected)
        true
        (Float.abs (got -. expected) < slack))
    outputs;
  (* and the whole distribution sums correctly over observed outputs *)
  let mass =
    Hashtbl.fold (fun y _ acc -> acc +. closed_form y) counts 0.
  in
  Alcotest.(check bool) "observed outputs carry most closed-form mass" true (mass > 0.99)

let test_determinism () =
  let db = fixed_db (Rng.create ~seed:10 ()) ~universe:50 ~size:6 ~count:200 in
  let run () =
    let scheme = Randomizer.cut_and_paste ~universe:50 ~cutoff:4 ~rho:0.1 in
    Randomizer.apply_db scheme (Rng.create ~seed:99 ()) db
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same outputs" true
    (Array.for_all2 Itemset.equal (Db.transactions a) (Db.transactions b))

let test_apply_db_tagged () =
  let rng = Rng.create ~seed:9 () in
  let scheme = Randomizer.cut_and_paste ~universe:30 ~cutoff:2 ~rho:0.1 in
  let db =
    Db.create ~universe:30
      (Array.of_list (List.map Itemset.of_list [ [ 1; 2; 3 ]; [ 4 ]; []; [ 5; 6 ] ]))
  in
  let tagged = Randomizer.apply_db_tagged scheme rng db in
  Alcotest.(check (list int)) "original sizes preserved" [ 3; 1; 0; 2 ]
    (Array.to_list (Array.map fst tagged))

let test_universe_mismatch () =
  let rng = Rng.create () in
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:0.5 ~p_add:0.1 in
  let db = Db.create ~universe:20 [| Itemset.singleton 1 |] in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Randomizer.apply_db: universe mismatch") (fun () ->
      ignore (Randomizer.apply_db scheme rng db))

(* Distribution of the one-pass sampler.  Each check is a chi-square
   goodness of fit at the p-value floor of the [Stat] helpers (0.001). *)

let p_floor = 0.001

let fit name ~observed ~expected =
  let p = Ppdm_check.Stat.chi_square_fit ~observed ~expected in
  Alcotest.(check bool) (Printf.sprintf "%s: p = %.4f" name p) true (p >= p_floor)

(* Universe 10 around t = {2, 3, 7}: the complement {0,1,4,5,6,8,9} holds
   both ends of the universe and an item on each side of every run of t. *)
let noise_universe = 10
let noise_tx = Itemset.of_list [ 2; 3; 7 ]
let noise_rho = 0.3

let noise_samples f =
  let scheme =
    Randomizer.select_a_size ~universe:noise_universe ~size:3
      ~keep_dist:[| 0.1; 0.2; 0.3; 0.4 |] ~rho:noise_rho
  in
  let rng = Rng.create ~seed:11 () in
  let trials = Ppdm_check.Property.scaled ~base:20_000 in
  for _ = 1 to trials do
    f (Randomizer.apply scheme rng noise_tx)
  done;
  trials

let test_noise_marginals () =
  let hits = Array.make noise_universe 0 in
  let trials =
    noise_samples (fun y -> Itemset.iter (fun x -> hits.(x) <- hits.(x) + 1) y)
  in
  let n = float_of_int trials in
  List.iter
    (fun x ->
      fit
        (Printf.sprintf "item %d enters at rate rho" x)
        ~observed:[| hits.(x); trials - hits.(x) |]
        ~expected:[| n *. noise_rho; n *. (1. -. noise_rho) |])
    [ 0; 1; 4; 5; 6; 8; 9 ]

(* Adjacent complement items: 1 and 4 are consecutive ranks across the run
   {2, 3} of t, 8 and 9 the last two; their joint cells must factor. *)
let test_noise_pairs_independent () =
  let pairs = [ (1, 4); (4, 5); (8, 9) ] in
  let cells = List.map (fun _ -> Array.make 4 0) pairs in
  let trials =
    noise_samples (fun y ->
        List.iter2
          (fun (a, b) c ->
            let i = (if Itemset.mem a y then 2 else 0) + if Itemset.mem b y then 1 else 0 in
            c.(i) <- c.(i) + 1)
          pairs cells)
  in
  let n = float_of_int trials and r = noise_rho in
  let q = 1. -. r in
  List.iter2
    (fun (a, b) c ->
      fit
        (Printf.sprintf "items %d, %d independent" a b)
        ~observed:c
        ~expected:[| n *. q *. q; n *. q *. r; n *. r *. q; n *. r *. r |])
    pairs cells

(* For a fixed keep size j, every j-subset of t is equally likely. *)
let test_kept_subsets_uniform () =
  let tx = Itemset.of_list [ 3; 8; 11; 12; 19 ] in
  List.iter
    (fun j ->
      let keep_dist = Array.init 6 (fun i -> if i = j then 1. else 0.) in
      let scheme =
        Randomizer.select_a_size ~universe:20 ~size:5 ~keep_dist ~rho:0.
      in
      let subsets = Array.of_list (Itemset.subsets_of_size tx j) in
      let counts = Array.make (Array.length subsets) 0 in
      let rng = Rng.create ~seed:(12 + j) () in
      let trials = Ppdm_check.Property.scaled ~base:10_000 in
      for _ = 1 to trials do
        let y = Randomizer.apply scheme rng tx in
        let i = ref 0 in
        while not (Itemset.equal subsets.(!i) y) do
          incr i
        done;
        counts.(!i) <- counts.(!i) + 1
      done;
      let cell = float_of_int trials /. float_of_int (Array.length subsets) in
      fit
        (Printf.sprintf "all C(5,%d) kept subsets" j)
        ~observed:counts
        ~expected:(Array.make (Array.length subsets) cell))
    [ 1; 2; 3 ]

let test_sampler_edges () =
  let rng = Rng.create ~seed:13 () in
  let tx = Itemset.of_list [ 0; 4; 9 ] in
  let keep_dist = [| 0.25; 0.25; 0.25; 0.25 |] in
  let mk ~universe rho = Randomizer.select_a_size ~universe ~size:3 ~keep_dist ~rho in
  let no_noise = mk ~universe:10 0. in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "rho = 0 adds nothing" true
      (Itemset.subset (Randomizer.apply no_noise rng tx) tx)
  done;
  (* A gap of ~1e300 ranks must clamp, not overflow int_of_float. *)
  let tiny = mk ~universe:1_000 1e-300 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "rho = 1e-300 adds nothing" true
      (Itemset.subset (Randomizer.apply tiny rng tx) tx)
  done;
  (* m = universe: no complement to draw noise from, at any rho. *)
  let full = Itemset.of_list [ 0; 1; 2 ] in
  List.iter
    (fun rho ->
      let scheme = mk ~universe:3 rho in
      for _ = 1 to 200 do
        Alcotest.(check bool) "m = universe keeps a subset" true
          (Itemset.subset (Randomizer.apply scheme rng full) full)
      done)
    [ 0.; 0.5; 1. ];
  let empty_with rho universe =
    Randomizer.apply (Randomizer.uniform ~universe ~p_keep:0.5 ~p_add:rho) rng
      Itemset.empty
  in
  Alcotest.(check bool) "empty, rho = 0" true (Itemset.is_empty (empty_with 0. 7));
  Alcotest.(check (list int)) "empty, rho = 1" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Itemset.to_list (empty_with 1. 7))

(* Randomizing a transaction allocates its output and little else: a boxed
   generator state or a per-call closure would cost thousands of words. *)
let test_allocation_guard () =
  let universe = 100 and calls = 10_000 in
  let scheme =
    Randomizer.select_a_size ~universe ~size:5
      ~keep_dist:[| 0.05; 0.1; 0.15; 0.2; 0.2; 0.3 |] ~rho:0.2949
  in
  let rng = Rng.create ~seed:14 () in
  let tx = Itemset.of_list [ 3; 17; 42; 60; 99 ] in
  ignore (Randomizer.apply scheme rng tx);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Randomizer.apply scheme rng tx))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per call <= 256" per_call)
    true (per_call <= 256.)

(* Randomizing into the report store allocates per chunk, not per row: the
   tagged route's pair and itemset cost ~37 words a row. *)
let test_store_allocation_guard () =
  let universe = 100 and rows = 10_000 in
  let scheme =
    Randomizer.select_a_size ~universe ~size:5
      ~keep_dist:[| 0.05; 0.1; 0.15; 0.2; 0.2; 0.3 |] ~rho:0.2949
  in
  let db = fixed_db (Rng.create ~seed:15 ()) ~universe ~size:5 ~count:rows in
  Ppdm_runtime.Pool.with_pool ~jobs:1 (fun pool ->
      let randomize seed =
        Ppdm_runtime.Parallel.randomize pool scheme (Rng.create ~seed ()) db
      in
      (* the first run warms the scheme's cache and the scratch buffer *)
      ignore (randomize 1);
      let before = Gc.minor_words () in
      let store = Sys.opaque_identity (randomize 2) in
      let per_row = (Gc.minor_words () -. before) /. float_of_int rows in
      Alcotest.(check int) "every row stored" rows (Reports.length store);
      Alcotest.(check bool)
        (Printf.sprintf "%.2f minor words per row <= 4" per_row)
        true (per_row <= 4.))

(* An oversize transaction fails on its size, before its operator is
   produced and cached. *)
let test_oversize_checked_first () =
  let scheme = Randomizer.cut_and_paste ~universe:5 ~cutoff:2 ~rho:0.1 in
  let tx = Itemset.of_list [ 0; 1; 2; 3; 4; 5; 6 ] in
  let misses () =
    Option.value ~default:0
      (List.assoc_opt "randomizer.cache.miss"
         (Ppdm_obs.Metrics.snapshot ()).Ppdm_obs.Metrics.counters)
  in
  Fun.protect
    ~finally:(fun () ->
      Ppdm_obs.Metrics.set_enabled false;
      Ppdm_obs.Metrics.reset ())
    (fun () ->
      Ppdm_obs.Metrics.reset ();
      Ppdm_obs.Metrics.set_enabled true;
      let before = misses () in
      let too_large = Invalid_argument "Randomizer.apply: transaction too large" in
      Alcotest.check_raises "apply" too_large (fun () ->
          ignore (Randomizer.apply scheme (Rng.create ~seed:1 ()) tx));
      Alcotest.check_raises "apply_into" too_large (fun () ->
          ignore
            (Randomizer.apply_into scheme (Rng.create ~seed:1 ()) tx
               (Array.make 64 0) ~off:0));
      Alcotest.(check int) "no operator resolved" before (misses ()))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"output items always inside the universe" ~count:200
      (triple small_int (int_range 0 8) (float_range 0.01 0.5))
      (fun (seed, m, rho) ->
        let rng = Rng.create ~seed () in
        let universe = 30 in
        let scheme = Randomizer.cut_and_paste ~universe ~cutoff:3 ~rho in
        let tx =
          Itemset.of_sorted_array_unchecked
            (Ppdm_prng.Dist.sample_distinct rng ~k:m ~bound:universe)
        in
        let out = Randomizer.apply scheme rng tx in
        List.for_all (fun x -> x >= 0 && x < universe) (Itemset.to_list out));
    Test.make ~name:"kept items are a subset of the input" ~count:200
      (pair small_int (int_range 1 8)) (fun (seed, m) ->
        let rng = Rng.create ~seed () in
        let universe = 30 in
        (* rho = 0 means output ⊆ input *)
        let scheme =
          Randomizer.per_size ~universe ~name:"test" (fun size ->
              {
                Randomizer.keep_dist =
                  Array.init (size + 1) (fun j -> if j = size / 2 then 1. else 0.);
                rho = 0.;
              })
        in
        let tx =
          Itemset.of_sorted_array_unchecked
            (Ppdm_prng.Dist.sample_distinct rng ~k:m ~bound:universe)
        in
        let out = Randomizer.apply scheme rng tx in
        Itemset.subset out tx && Itemset.cardinal out = m / 2);
  ]

let suite =
  [
    Alcotest.test_case "identity operator" `Quick test_identity_operator;
    Alcotest.test_case "erasing operator" `Quick test_erasing_operator;
    Alcotest.test_case "complementing operator" `Quick test_complementing_operator;
    Alcotest.test_case "output stays in universe" `Quick test_output_in_universe;
    Alcotest.test_case "uniform induced keep dist" `Quick test_uniform_induced_dist;
    Alcotest.test_case "cut-and-paste clipped dist" `Quick test_cut_and_paste_dist_clipped;
    Alcotest.test_case "cut-and-paste unclipped dist" `Quick test_cut_and_paste_dist_unclipped;
    Alcotest.test_case "select-a-size validation" `Quick test_select_a_size_validation;
    Alcotest.test_case "empty transaction noise" `Quick test_empty_transaction;
    Alcotest.test_case "kept-fraction statistics" `Quick test_kept_fraction_statistics;
    Alcotest.test_case "noise-rate statistics" `Quick test_noise_rate_statistics;
    Alcotest.test_case "transition probability formula" `Slow test_transition_probability_formula;
    Alcotest.test_case "noise marginals" `Quick test_noise_marginals;
    Alcotest.test_case "adjacent noise independent" `Quick test_noise_pairs_independent;
    Alcotest.test_case "kept subsets uniform" `Quick test_kept_subsets_uniform;
    Alcotest.test_case "sampler edge cases" `Quick test_sampler_edges;
    Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
    Alcotest.test_case "allocation guard, report store" `Quick
      test_store_allocation_guard;
    Alcotest.test_case "oversize transaction fails before resolving" `Quick
      test_oversize_checked_first;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "tagged application" `Quick test_apply_db_tagged;
    Alcotest.test_case "universe mismatch" `Quick test_universe_mismatch;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
