(* Parser fuzzing, on the ppdm_check generators: every input either
   parses or fails with a documented exception (Failure /
   Invalid_argument) — never Not_found, End_of_file, out-of-bounds, or
   success on nonsense.  The generators and the runner live in
   ppdm_check, so any failure here prints a seed that replays it
   (PPDM_CHECK_SEED). *)

open Ppdm_data
open Ppdm
open Ppdm_check

let with_content content f =
  let path = Filename.temp_file "ppdm_fuzz" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

(* A reader survives fuzzing when every input either parses or fails with
   a documented exception. *)
let survives reader content =
  with_content content (fun path ->
      match reader path with
      | _ -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

(* The typed out-of-universe error is part of the tagged reader's
   documented contract. *)
let read_tagged path =
  try
    ignore
      (Io.read_tagged path ~init:(fun _ -> 0) ~f:(fun n (size, y) ->
           n + size + Itemset.cardinal y))
  with Io.Item_out_of_universe _ -> ()

(* almost_db_text under a tagged header, each row behind a size field:
   the structured garbage of the tagged format. *)
let almost_tagged_text =
  Gen.map ~print:String.escaped
    (fun text ->
      match String.split_on_char '\n' text with
      | header :: rows ->
          let rest = String.sub header 8 (String.length header - 8) in
          String.concat "\n"
            (("tagged" ^ rest)
            :: List.mapi (fun i row -> Printf.sprintf "%d|%s" i row) rows)
      | [] -> text)
    Gen.almost_db_text

let prop name gen p =
  Alcotest.test_case name `Quick (fun () ->
      Property.assert_ok
        (Property.check ~count:(Property.scaled ~base:300) ~name gen p))

let survival_tests =
  [
    prop "Io.read_file survives random bytes" Gen.garbage_string
      (survives Io.read_file);
    prop "Io.read_file survives structured garbage" Gen.almost_db_text
      (survives Io.read_file);
    prop "Io.read_tagged survives structured garbage" almost_tagged_text
      (survives read_tagged);
    prop "Io.read_fimi survives random bytes" Gen.garbage_string
      (survives (fun p -> Io.read_fimi p));
    prop "Scheme_io.read_file survives random bytes" Gen.garbage_string
      (survives Scheme_io.read_file);
    prop "Scheme_io read+resolve survives corrupted scheme files"
      Gen.corrupt_scheme_text (fun content ->
        with_content content (fun path ->
            (* reading may succeed (the file may be syntactically valid);
               resolving must then validate the operator *)
            match Scheme_io.read_file path with
            | scheme -> (
                match Randomizer.resolve scheme ~size:3 with
                | _ -> true
                | exception Invalid_argument _ -> true
                | exception _ -> false)
            | exception Failure _ -> true
            | exception Invalid_argument _ -> true
            | exception _ -> false));
  ]

(* Round-trips: whatever the generators produce must survive
   write-then-read bit-for-bit, in each on-disk format. *)

let db_gen = Gen.db ~max_universe:12 ~max_transactions:20 ()

let roundtrip_tests =
  let open Ppdm_prng in
  let check_result name gen p =
    Alcotest.test_case name `Quick (fun () ->
        Property.assert_ok
          (Property.check_result ~count:(Property.scaled ~base:100) ~name gen p))
  in
  [
    check_result "Io write/read round-trip" db_gen (fun db ->
        with_content "" (fun path ->
            Io.write_file path db;
            let back = Io.read_file path in
            if
              Db.universe back = Db.universe db
              && Array.for_all2 Itemset.equal (Db.transactions back)
                   (Db.transactions db)
            then Ok ()
            else Error "database changed across write/read"));
    check_result "FIMI write/read round-trip" db_gen (fun db ->
        with_content "" (fun path ->
            Io.write_fimi path db;
            let back = Io.read_fimi ~universe:(Db.universe db) path in
            if
              Array.for_all2 Itemset.equal (Db.transactions back)
                (Db.transactions db)
            then Ok ()
            else Error "transactions changed across FIMI write/read"));
    check_result "Scheme_io write/read round-trip"
      (Gen.pair db_gen (Gen.int_range 0 1_000_000))
      (fun (db, key) ->
        let scheme =
          Gen.generate
            (Gen.scheme ~universe:(Db.universe db))
            (Rng.create ~seed:key ())
            ~size:4
        in
        let sizes = Scheme_io.sizes_of_db db in
        if sizes = [] then Ok ()
        else
          with_content "" (fun path ->
              Scheme_io.write_file path scheme ~sizes;
              if Randomizer.same_parameters scheme (Scheme_io.read_file path) ~sizes
              then Ok ()
              else Error "scheme parameters changed across write/read"));
  ]

let test_roundtrip_after_fuzz () =
  (* sanity: a legitimate file still parses after all that *)
  let db =
    Db.create ~universe:6
      (Array.of_list (List.map Itemset.of_list [ [ 0; 5 ]; []; [ 1; 2; 3 ] ]))
  in
  let path = Filename.temp_file "ppdm_ok" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file path db;
      Alcotest.(check int) "reads back" 3 (Db.length (Io.read_file path)))

let suite =
  [ Alcotest.test_case "legitimate file still parses" `Quick test_roundtrip_after_fuzz ]
  @ survival_tests @ roundtrip_tests
