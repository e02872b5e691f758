(* Scheme serialization tests: round-trips preserve the operators (hence
   randomization and estimation behaviour), unknown sizes are rejected,
   malformed input fails cleanly. *)

open Ppdm_prng
open Ppdm_data
open Ppdm

let with_temp f =
  let path = Filename.temp_file "ppdm_scheme" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let check_resolved msg expected actual =
  Alcotest.(check (float 1e-15)) (msg ^ " rho") expected.Randomizer.rho
    actual.Randomizer.rho;
  Alcotest.(check (array (float 1e-15)))
    (msg ^ " keep_dist")
    expected.Randomizer.keep_dist actual.Randomizer.keep_dist

let test_roundtrip_cut_and_paste () =
  let scheme = Randomizer.cut_and_paste ~universe:500 ~cutoff:4 ~rho:0.073 in
  with_temp (fun path ->
      Scheme_io.write_file path scheme ~sizes:[ 0; 1; 3; 7; 7; 12 ];
      let back = Scheme_io.read_file path in
      Alcotest.(check int) "universe" 500 (Randomizer.universe back);
      List.iter
        (fun size ->
          check_resolved
            (Printf.sprintf "size %d" size)
            (Randomizer.resolve scheme ~size)
            (Randomizer.resolve back ~size))
        [ 0; 1; 3; 7; 12 ])

let test_roundtrip_optimized () =
  let d = Optimizer.design_for_estimation ~m:6 ~gamma:19. () in
  let scheme =
    Randomizer.select_a_size ~universe:200 ~size:6 ~keep_dist:d.Optimizer.dist
      ~rho:d.Optimizer.rho
  in
  with_temp (fun path ->
      Scheme_io.write_file path scheme ~sizes:[ 6 ];
      let back = Scheme_io.read_file path in
      check_resolved "size 6" (Randomizer.resolve scheme ~size:6)
        (Randomizer.resolve back ~size:6);
      (* behaviour equality: same seeds, same randomized output *)
      let tx = Itemset.of_list [ 1; 2; 3; 4; 5; 6 ] in
      let a = Randomizer.apply scheme (Rng.create ~seed:5 ()) tx in
      let b = Randomizer.apply back (Rng.create ~seed:5 ()) tx in
      Alcotest.(check bool) "identical behaviour" true (Itemset.equal a b))

let test_unknown_size_rejected () =
  let scheme = Randomizer.cut_and_paste ~universe:100 ~cutoff:2 ~rho:0.1 in
  with_temp (fun path ->
      Scheme_io.write_file path scheme ~sizes:[ 3; 4 ];
      let back = Scheme_io.read_file path in
      Alcotest.(check bool) "known size works" true
        (Randomizer.resolve back ~size:3 |> fun r -> Array.length r.Randomizer.keep_dist = 4);
      Alcotest.(check bool) "unknown size rejected" true
        (match Randomizer.resolve back ~size:5 with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_malformed () =
  let cases =
    [
      "";
      "wrong magic\n";
      "ppdm-scheme 1\nuniverse -3\n";
      "ppdm-scheme 1\nuniverse 10\nname x\nsize 2 rho 0.1 keep 0.5 0.5\n";
      (* keep_dist length mismatch: size 2 needs 3 entries *)
    ]
  in
  List.iter
    (fun input ->
      with_temp (fun path ->
          let oc = open_out path in
          output_string oc input;
          close_out oc;
          match Scheme_io.read_file path with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail ("accepted malformed input: " ^ String.escaped input)))
    cases

let test_sizes_of_db () =
  let db =
    Db.create ~universe:10
      (Array.of_list
         (List.map Itemset.of_list [ [ 1; 2 ]; []; [ 1 ]; [ 3; 4 ]; [ 1; 2; 3 ] ]))
  in
  Alcotest.(check (list int)) "distinct sizes" [ 0; 1; 2; 3 ] (Scheme_io.sizes_of_db db)

let test_estimation_through_roundtrip () =
  (* Serialize on the client, estimate on the server with the read-back
     scheme: results must be identical. *)
  let universe = 120 in
  let rng = Rng.create ~seed:31 () in
  let itemset = Itemset.of_list [ 2; 9 ] in
  let db =
    Ppdm_datagen.Simple.planted rng ~universe ~size:5 ~count:3000 ~itemset
      ~support:0.15
  in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.04 in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  with_temp (fun path ->
      Scheme_io.write_file path scheme ~sizes:(Scheme_io.sizes_of_db db);
      let back = Scheme_io.read_file path in
      let a = Estimator.estimate ~scheme ~data ~itemset in
      let b = Estimator.estimate ~scheme:back ~data ~itemset in
      Alcotest.(check (float 0.)) "same estimate" a.Estimator.support b.Estimator.support;
      Alcotest.(check (float 0.)) "same sigma" a.Estimator.sigma b.Estimator.sigma)

let suite =
  [
    Alcotest.test_case "roundtrip cut-and-paste" `Quick test_roundtrip_cut_and_paste;
    Alcotest.test_case "roundtrip optimized" `Quick test_roundtrip_optimized;
    Alcotest.test_case "unknown size rejected" `Quick test_unknown_size_rejected;
    Alcotest.test_case "malformed inputs" `Quick test_malformed;
    Alcotest.test_case "sizes_of_db" `Quick test_sizes_of_db;
    Alcotest.test_case "estimation through roundtrip" `Quick test_estimation_through_roundtrip;
  ]
