(* Tests for the PRNG substrate: determinism, bounds, and distributional
   sanity (chi-square thresholds chosen at the ~0.999 level so seeded runs
   never flake). *)

open Ppdm_prng
open Ppdm_linalg

let check = Alcotest.check

let test_determinism () =
  let a = Rng.create ~seed:42 () and b = Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:2 () in
  Alcotest.(check bool)
    "different seeds diverge" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_copy_independent () =
  let a = Rng.create ~seed:7 () in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  (* advancing [a] further must not affect [b] *)
  let _ = Rng.bits64 a in
  check Alcotest.int64 "copy starts at same state" va (Rng.bits64 b)

let test_split_decorrelated () =
  let a = Rng.create ~seed:7 () in
  let b = Rng.split a in
  let xs = Array.init 64 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 64 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_derive_reproducible () =
  (* same parent state, same index -> identical child stream *)
  let a = Rng.create ~seed:7 () in
  let c1 = Rng.derive a ~index:3 in
  let c2 = Rng.derive a ~index:3 in
  for _ = 1 to 50 do
    check Alcotest.int64 "same child stream" (Rng.bits64 c1) (Rng.bits64 c2)
  done;
  (* deriving does not advance the parent *)
  let untouched = Rng.create ~seed:7 () in
  check Alcotest.int64 "parent unchanged" (Rng.bits64 untouched) (Rng.bits64 a)

let test_derive_independent () =
  (* distinct indices -> decorrelated children; children differ from the
     parent's own stream *)
  let a = Rng.create ~seed:7 () in
  let stream rng = Array.init 64 (fun _ -> Rng.bits64 rng) in
  let c0 = stream (Rng.derive a ~index:0) in
  let c1 = stream (Rng.derive a ~index:1) in
  let c2 = stream (Rng.derive a ~index:2) in
  Alcotest.(check bool) "index 0 <> index 1" true (c0 <> c1);
  Alcotest.(check bool) "index 1 <> index 2" true (c1 <> c2);
  Alcotest.(check bool) "child <> parent stream" true (c0 <> stream a);
  (* a different parent state yields different children at the same index *)
  let b = Rng.create ~seed:8 () in
  Alcotest.(check bool) "parent state matters" true
    (stream (Rng.derive b ~index:0) <> c0);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be non-negative") (fun () ->
      ignore (Rng.derive a ~index:(-1)))

let test_derive_uniformity () =
  (* low bits across children at consecutive indices stay balanced — the
     SplitMix64 mixing really decorrelates the index *)
  let a = Rng.create ~seed:97 () in
  let buckets = Array.make 16 0 in
  for index = 0 to 15_999 do
    let child = Rng.derive a ~index in
    let v = Int64.to_int (Int64.logand (Rng.bits64 child) 15L) in
    buckets.(v) <- buckets.(v) + 1
  done;
  let chi2 = Stats.chi_square_uniform buckets in
  (* df = 15, 0.999 critical value = 37.70 *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f below 37.70" chi2)
    true (chi2 < 37.70)

let test_int_bounds () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_uniform () =
  let rng = Rng.create ~seed:11 () in
  let buckets = Array.make 16 0 in
  for _ = 1 to 16_000 do
    let v = Rng.int rng 16 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let chi2 = Stats.chi_square_uniform buckets in
  (* df = 15, 0.999 critical value = 37.70 *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f below 37.70" chi2)
    true (chi2 < 37.70)

let test_float_range () =
  let rng = Rng.create ~seed:5 () in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_int_in_range () =
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  check Alcotest.int "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let mean_of n f =
  let rng = Rng.create ~seed:77 () in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f rng
  done;
  !acc /. float_of_int n

let test_bernoulli_rate () =
  let m = mean_of 20_000 (fun rng -> if Dist.bernoulli rng 0.3 then 1. else 0.) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 0.3" m)
    true
    (Float.abs (m -. 0.3) < 0.015)

let test_poisson_mean () =
  let m = mean_of 20_000 (fun rng -> float_of_int (Dist.poisson rng ~mean:6.5)) in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean %.2f near 6.5" m)
    true
    (Float.abs (m -. 6.5) < 0.15)

let test_exponential_mean () =
  let m = mean_of 20_000 (fun rng -> Dist.exponential rng ~rate:2.) in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean %.3f near 0.5" m)
    true
    (Float.abs (m -. 0.5) < 0.03)

let test_normal_moments () =
  let rng = Rng.create ~seed:13 () in
  let xs = Array.init 20_000 (fun _ -> Dist.normal rng ~mean:3. ~std:2.) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stats.mean xs -. 3.) < 0.1);
  Alcotest.(check bool) "std near 2" true (Float.abs (Stats.std xs -. 2.) < 0.1)

(* The first outputs of every stream primitive for two seeds.  Any change
   to the generator's arithmetic or state layout moves a bit here. *)
let test_stream_golden () =
  let expect seed ~bits ~ints ~floats ~split ~after_split ~derive ~after_derive =
    let r = Rng.create ~seed () in
    let name what = Printf.sprintf "seed %d %s" seed what in
    List.iter (fun v -> check Alcotest.int64 (name "bits64") v (Rng.bits64 r)) bits;
    List.iter (fun v -> check Alcotest.int (name "int 1000") v (Rng.int r 1000)) ints;
    List.iter
      (fun v -> check (Alcotest.float 0.) (name "float") v (Rng.float r))
      floats;
    let child = Rng.split r in
    check Alcotest.int64 (name "split child") split (Rng.bits64 child);
    check Alcotest.int64 (name "after split") after_split (Rng.bits64 r);
    let d = Rng.derive r ~index:7 in
    check Alcotest.int64 (name "derive 7") derive (Rng.bits64 d);
    check Alcotest.int64 (name "after derive") after_derive (Rng.bits64 r)
  in
  expect 1
    ~bits:[ -3475142291704528229L; -4665094578477473651L; 1847458086238483744L ]
    ~ints:[ 117; 945; 121 ]
    ~floats:[ 0x1.f9478f2a11e82p-1; 0x1.0bfd4b9206c7ep-1 ]
    ~split:(-5969713029300760893L) ~after_split:2477283028068920342L
    ~derive:(-4462678492829440922L) ~after_derive:(-1468719962161945015L);
  expect 42
    ~bits:[ -3425465463722317665L; 5881210131331364753L; -297100157724070516L ]
    ~ints:[ 366; 332; 991 ]
    ~floats:[ 0x1.00b8c7f910d18p-3; 0x1.35d29c0e1db19p-1 ]
    ~split:1381520278231224474L ~after_split:(-1229528662580879148L)
    ~derive:(-3720932534224915042L) ~after_derive:(-8125062621930030782L)

let test_bits53_is_float () =
  let a = Rng.create ~seed:5 () in
  let b = Rng.copy a in
  for _ = 1 to 100 do
    let v = Rng.bits53 a in
    Alcotest.(check bool) "in [0, 2^53)" true (v >= 0 && v < 1 lsl 53);
    check (Alcotest.float 0.) "float is bits53 / 2^53"
      (float_of_int v *. 0x1p-53) (Rng.float b)
  done

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:21 () in
  let arr = Array.init 50 Fun.id in
  Dist.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_distinct () =
  let rng = Rng.create ~seed:23 () in
  for _ = 1 to 200 do
    let k = Rng.int rng 11 in
    let s = Dist.sample_distinct rng ~k ~bound:10 in
    check Alcotest.int "length k" k (Array.length s);
    for i = 0 to k - 1 do
      Alcotest.(check bool) "in bounds" true (s.(i) >= 0 && s.(i) < 10);
      if i > 0 then Alcotest.(check bool) "strictly increasing" true (s.(i) > s.(i - 1))
    done
  done;
  check Alcotest.(array int) "k = bound is everything"
    (Array.init 6 Fun.id)
    (Dist.sample_distinct rng ~k:6 ~bound:6)

let test_sample_distinct_uniform () =
  (* All C(4,2) = 6 pairs should be equally likely. *)
  let rng = Rng.create ~seed:29 () in
  let tbl = Hashtbl.create 6 in
  for _ = 1 to 6_000 do
    let s = Dist.sample_distinct rng ~k:2 ~bound:4 in
    let key = (s.(0), s.(1)) in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  check Alcotest.int "all six pairs appear" 6 (Hashtbl.length tbl);
  let counts = Array.of_seq (Seq.map snd (Hashtbl.to_seq tbl)) in
  let chi2 = Stats.chi_square_uniform counts in
  (* df = 5, 0.999 critical value = 20.52 *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f below 20.52" chi2)
    true (chi2 < 20.52)

let test_discrete_matches_weights () =
  let rng = Rng.create ~seed:31 () in
  let weights = [| 1.; 2.; 3.; 4. |] in
  let d = Dist.discrete weights in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Dist.discrete_sample rng d in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = weights.(i) /. 10. in
      let got = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d: %.3f near %.3f" i got expected)
        true
        (Float.abs (got -. expected) < 0.01))
    counts

let test_categorical_matches_discrete () =
  let rng = Rng.create ~seed:37 () in
  let weights = [| 0.5; 0.; 1.5 |] in
  for _ = 1 to 2_000 do
    let i = Dist.categorical rng weights in
    Alcotest.(check bool) "never picks zero-weight bucket" true (i <> 1)
  done

let test_zipf_popularity () =
  let rng = Rng.create ~seed:41 () in
  let z = Dist.zipf ~n:100 ~s:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Dist.zipf_sample rng z in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 beats rank 10" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 beats rank 90" true (counts.(10) > counts.(90));
  (* ratio of rank-0 to rank-1 frequencies should be near 2 for s = 1 *)
  let ratio = float_of_int counts.(0) /. float_of_int counts.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "rank0/rank1 ratio %.2f near 2" ratio)
    true
    (ratio > 1.7 && ratio < 2.3)

let test_validation_errors () =
  let rng = Rng.create () in
  Alcotest.check_raises "bernoulli p>1"
    (Invalid_argument "Dist.bernoulli: p out of [0,1]") (fun () ->
      ignore (Dist.bernoulli rng 1.5));
  Alcotest.check_raises "sample_distinct k>bound"
    (Invalid_argument "Dist.sample_distinct: bad k") (fun () ->
      ignore (Dist.sample_distinct rng ~k:5 ~bound:3));
  Alcotest.check_raises "discrete all-zero"
    (Invalid_argument "Dist.discrete: weights sum to zero") (fun () ->
      ignore (Dist.discrete [| 0.; 0. |]))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Rng.int always within bound" ~count:500
      (pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed () in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"sample_distinct yields distinct sorted values" ~count:200
      (pair small_int (int_range 0 50))
      (fun (seed, k) ->
        let rng = Rng.create ~seed () in
        let s = Dist.sample_distinct rng ~k ~bound:60 in
        Array.length s = k
        && Array.for_all (fun x -> x >= 0 && x < 60) s
        &&
        let ok = ref true in
        for i = 1 to k - 1 do
          if s.(i) <= s.(i - 1) then ok := false
        done;
        !ok);
    Test.make ~name:"subset preserves element order" ~count:200
      (pair small_int (int_range 0 20))
      (fun (seed, k) ->
        let rng = Rng.create ~seed () in
        let arr = Array.init 20 (fun i -> i * 3) in
        let s = Dist.subset rng ~k arr in
        let ok = ref true in
        for i = 1 to Array.length s - 1 do
          if s.(i) <= s.(i - 1) then ok := false
        done;
        !ok);
  ]

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split decorrelation" `Quick test_split_decorrelated;
    Alcotest.test_case "derive reproducible" `Quick test_derive_reproducible;
    Alcotest.test_case "derive independent" `Quick test_derive_independent;
    Alcotest.test_case "derive uniformity" `Quick test_derive_uniformity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Quick test_int_uniform;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "int_in_range" `Quick test_int_in_range;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "stream golden values" `Quick test_stream_golden;
    Alcotest.test_case "bits53 is float's draw" `Quick test_bits53_is_float;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample_distinct basics" `Quick test_sample_distinct;
    Alcotest.test_case "sample_distinct uniformity" `Quick test_sample_distinct_uniform;
    Alcotest.test_case "discrete alias sampling" `Quick test_discrete_matches_weights;
    Alcotest.test_case "categorical zero weights" `Quick test_categorical_matches_discrete;
    Alcotest.test_case "zipf popularity" `Quick test_zipf_popularity;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests

