(* Generic-channel tests: validation, gamma closed cases, composition
   (data-processing inequality), Bayes posteriors, and both recovery
   methods against known input distributions. *)

open Ppdm_prng
open Ppdm_linalg
open Ppdm

let rr size epsilon = Channel.randomized_response ~size ~epsilon

let test_create_validation () =
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Channel.create: negative probability") (fun () ->
      ignore (Channel.create (Mat.of_arrays [| [| 1.5 |]; [| -0.5 |] |])));
  Alcotest.check_raises "bad column"
    (Invalid_argument "Channel.create: column does not sum to 1") (fun () ->
      ignore (Channel.create (Mat.of_arrays [| [| 0.5 |]; [| 0.4 |] |])));
  let c = Channel.create (Mat.of_arrays [| [| 0.9; 0.2 |]; [| 0.1; 0.8 |] |]) in
  Alcotest.(check int) "inputs" 2 (Channel.inputs c);
  Alcotest.(check int) "outputs" 2 (Channel.outputs c);
  Alcotest.(check (float 1e-12)) "entry" 0.2 (Channel.probability c ~x:1 ~y:0)

let test_rr_gamma () =
  List.iter
    (fun (size, epsilon) ->
      let c = rr size epsilon in
      Alcotest.(check bool)
        (Printf.sprintf "size %d eps %.2f: gamma = e^eps" size epsilon)
        true
        (Float.abs (Channel.gamma c -. exp epsilon) < 1e-9 *. exp epsilon))
    [ (2, 1.); (5, 0.5); (10, 2.); (3, 0.) ]

let test_identity_gamma_infinite () =
  let c = Channel.create (Ppdm_check.Oracle.identity 3) in
  Alcotest.(check (float 0.)) "identity discloses everything" infinity
    (Channel.gamma c)

let test_geometric_noise () =
  let c = Channel.geometric_noise ~size:6 ~alpha:0.5 in
  (* columns sum to 1 by construction *)
  Alcotest.(check bool) "valid channel" true
    (Transition.is_column_stochastic (Channel.matrix c));
  (* the diagonal dominates within each column *)
  for x = 0 to 5 do
    for y = 0 to 5 do
      if y <> x then
        Alcotest.(check bool) "diagonal maximal" true
          (Channel.probability c ~x ~y:x > Channel.probability c ~x ~y)
    done
  done;
  (* less noise (smaller alpha) means a larger gamma *)
  let sharp = Channel.geometric_noise ~size:6 ~alpha:0.2 in
  let blurry = Channel.geometric_noise ~size:6 ~alpha:0.8 in
  Alcotest.(check bool) "gamma decreases with alpha" true
    (Channel.gamma sharp > Channel.gamma blurry)

let test_composition () =
  let a = rr 4 1.5 and b = rr 4 1.0 in
  let ab = Channel.compose b a in
  Alcotest.(check bool) "processing cannot amplify" true
    (Channel.gamma ab <= Float.min (Channel.gamma a) (Channel.gamma b) +. 1e-9);
  Alcotest.check_raises "domain mismatch"
    (Invalid_argument "Channel.compose: domain mismatch") (fun () ->
      ignore (Channel.compose (rr 3 1.) (rr 4 1.)))

let test_posterior_bayes () =
  let c = Channel.create (Mat.of_arrays [| [| 0.9; 0.2 |]; [| 0.1; 0.8 |] |]) in
  let prior = [| 0.5; 0.5 |] in
  let post = Channel.posterior c ~prior ~y:0 in
  (* P(x=0 | y=0) = 0.9 / (0.9 + 0.2) *)
  Alcotest.(check (float 1e-12)) "bayes" (0.9 /. 1.1) post.(0);
  Alcotest.(check (float 1e-9)) "normalized" 1. (Array.fold_left ( +. ) 0. post);
  (* posterior respects the gamma bound *)
  let gamma = Channel.gamma c in
  Alcotest.(check bool) "bounded by amplification" true
    (post.(0) <= Amplification.posterior_upper_bound ~gamma ~prior:0.5 +. 1e-12)

let test_posterior_validation () =
  let c = rr 3 1. in
  Alcotest.check_raises "bad prior"
    (Invalid_argument "Channel.posterior: prior is not a probability vector")
    (fun () -> ignore (Channel.posterior c ~prior:[| 0.5; 0.2; 0.2 |] ~y:0))

let test_apply_distribution () =
  let c = rr 3 (log 4.) in
  (* keep probability = 4 / (4 + 2) = 2/3 *)
  let rng = Rng.create ~seed:5 () in
  let hits = ref 0 and trials = 30_000 in
  for _ = 1 to trials do
    if Channel.apply c rng 1 = 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "keep rate %.3f near 2/3" rate)
    true
    (Float.abs (rate -. (2. /. 3.)) < 0.01)

let observe channel rng truth_dist n =
  let sampler = Dist.discrete truth_dist in
  let counts = Array.make (Channel.outputs channel) 0 in
  for _ = 1 to n do
    let x = Dist.discrete_sample rng sampler in
    let y = Channel.apply channel rng x in
    counts.(y) <- counts.(y) + 1
  done;
  counts

let test_recovery_both_methods () =
  let truth = [| 0.5; 0.3; 0.15; 0.05 |] in
  let c = rr 4 1.2 in
  let rng = Rng.create ~seed:6 () in
  let counts = observe c rng truth 60_000 in
  let inv = Channel.estimate_inversion c ~counts in
  let em = Channel.estimate_em c ~counts in
  Array.iteri
    (fun x p ->
      Alcotest.(check bool)
        (Printf.sprintf "inversion x=%d: %.3f near %.3f" x inv.(x) p)
        true
        (Float.abs (inv.(x) -. p) < 0.02);
      Alcotest.(check bool)
        (Printf.sprintf "em x=%d: %.3f near %.3f" x em.(x) p)
        true
        (Float.abs (em.(x) -. p) < 0.02))
    truth;
  (* EM output is a distribution *)
  Alcotest.(check bool) "em simplex" true
    (Array.for_all (fun v -> v >= 0.) em
    && Float.abs (Array.fold_left ( +. ) 0. em -. 1.) < 1e-6)

let qcheck_tests =
  let open QCheck in
  let arb_channel =
    let gen =
      Gen.(
        let* size = int_range 2 6 in
        let* cols =
          array_size (return size)
            (array_size (return size) (float_range 0.05 1.))
        in
        let m =
          Mat.init ~rows:size ~cols:size (fun y x ->
              let total = Array.fold_left ( +. ) 0. cols.(x) in
              cols.(x).(y) /. total)
        in
        return (Channel.create m))
    in
    make ~print:(fun c -> Printf.sprintf "<channel %d>" (Channel.inputs c)) gen
  in
  [
    Test.make ~name:"gamma >= 1 and finite for positive channels" ~count:200
      arb_channel (fun c ->
        let g = Channel.gamma c in
        g >= 1. && Float.is_finite g);
    Test.make ~name:"posterior never exceeds the gamma bound" ~count:200
      (pair arb_channel (int_range 0 5)) (fun (c, y) ->
        QCheck.assume (y < Channel.outputs c);
        let d = Channel.inputs c in
        let prior = Array.make d (1. /. float_of_int d) in
        let post = Channel.posterior c ~prior ~y in
        Array.for_all
          (fun p ->
            p
            <= Amplification.posterior_upper_bound ~gamma:(Channel.gamma c)
                 ~prior:(1. /. float_of_int d)
               +. 1e-9)
          post);
    Test.make ~name:"composition never increases gamma" ~count:200
      (pair arb_channel arb_channel) (fun (a, b) ->
        QCheck.assume (Channel.inputs a = Channel.inputs b);
        Channel.gamma (Channel.compose b a)
        <= Float.min (Channel.gamma a) (Channel.gamma b) +. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "randomized-response gamma" `Quick test_rr_gamma;
    Alcotest.test_case "identity gamma infinite" `Quick test_identity_gamma_infinite;
    Alcotest.test_case "geometric noise" `Quick test_geometric_noise;
    Alcotest.test_case "composition" `Quick test_composition;
    Alcotest.test_case "posterior bayes" `Quick test_posterior_bayes;
    Alcotest.test_case "posterior validation" `Quick test_posterior_validation;
    Alcotest.test_case "apply distribution" `Slow test_apply_distribution;
    Alcotest.test_case "recovery both methods" `Slow test_recovery_both_methods;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
