(* Bitset tests: the SWAR popcount against a bit loop, and the tid-set
   builder against a naive fill and on every input it must reject. *)

open Ppdm_data

let rng () = Ppdm_prng.Rng.create ~seed:628 ()

let test_popcount () =
  let naive v =
    let c = ref 0 in
    for bit = 0 to 62 do
      if v lsr bit land 1 = 1 then incr c
    done;
    !c
  in
  let full = (1 lsl Bitset.bits_per_word) - 1 in
  Alcotest.(check int) "zero" 0 (Bitset.popcount 0);
  Alcotest.(check int) "2^62 - 1" 62 (Bitset.popcount full);
  let rng = rng () in
  for _ = 1 to 2000 do
    let v = Int64.to_int (Ppdm_prng.Rng.bits64 rng) land full in
    (* thinned words too, so low and high counts both show up *)
    let v =
      if Ppdm_prng.Rng.bool rng then
        v land Int64.to_int (Ppdm_prng.Rng.bits64 rng)
      else v
    in
    Alcotest.(check int)
      (Printf.sprintf "word %#x" v) (naive v) (Bitset.popcount v)
  done

(* Rows [rows.(tid)] fed as one flat buffer, as the report store holds
   them. *)
let fill ?cutoff ~n ~universe rows =
  let counts = Array.make universe 0 in
  Array.iter (Array.iter (fun i -> counts.(i) <- counts.(i) + 1)) rows;
  let b = Bitset.builder ?cutoff ~n counts in
  let flat = Array.concat (Array.to_list rows) and off = ref 0 in
  Array.iteri
    (fun tid row ->
      let len = Array.length row in
      Bitset.fill_row b ~tid flat ~off:!off ~len;
      off := !off + len)
    rows;
  (counts, Bitset.finish b)

let naive_payload ?cutoff ~n ~counts rows item =
  let tids =
    List.filter (fun tid -> Array.mem item rows.(tid)) (List.init n Fun.id)
  in
  if Bitset.dense_for ?cutoff ~n counts.(item) then begin
    let words = Array.make (Bitset.words_for n) 0 in
    List.iter
      (fun tid ->
        let w = tid / Bitset.bits_per_word in
        words.(w) <- words.(w) lor (1 lsl (tid mod Bitset.bits_per_word)))
      tids;
    words
  end
  else Array.of_list tids

let test_builder_vs_naive () =
  let rng = rng () in
  List.iter
    (fun n ->
      List.iter
        (fun cutoff ->
          let universe = 12 in
          (* item i is in a row with probability about 2^-(i/2): the hot
             items go dense, the cold ones stay sparse *)
          let rows =
            Array.init n (fun _ ->
                Array.of_list
                  (List.filter
                     (fun i -> Ppdm_prng.Rng.int rng (1 lsl (i / 2)) = 0)
                     (List.init universe Fun.id)))
          in
          let counts, payloads = fill ?cutoff ~n ~universe rows in
          Array.iteri
            (fun item p ->
              Alcotest.(check (array int))
                (Printf.sprintf "n %d item %d" n item)
                (naive_payload ?cutoff ~n ~counts rows item)
                p)
            payloads)
        [ None; Some 0.; Some 1.1 ])
    [ 1; 61; 62; 63; 123; 124; 125; 200 ]

let invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

(* Item 0 is dense (3 of 4 rows), item 1 sparse (1 of 4 at cutoff 0.5). *)
let small () = Bitset.builder ~cutoff:0.5 ~n:4 [| 3; 1 |]
let both = [| 0; 1 |]

let test_tid_range () =
  invalid "tid n" (fun () -> Bitset.fill_row (small ()) ~tid:4 both ~off:0 ~len:2);
  invalid "tid -1" (fun () ->
      Bitset.fill_row (small ()) ~tid:(-1) both ~off:0 ~len:2)

let test_sparse_past_count () =
  invalid "sparse item past its count" (fun () ->
      let b = small () in
      Bitset.fill_row b ~tid:0 both ~off:0 ~len:2;
      Bitset.fill_row b ~tid:1 both ~off:1 ~len:1)

let test_short_at_finish () =
  invalid "dense item short of its count" (fun () ->
      let b = small () in
      Bitset.fill_row b ~tid:0 both ~off:0 ~len:2;
      Bitset.fill_row b ~tid:1 both ~off:0 ~len:1;
      Bitset.finish b);
  invalid "dense row fed twice" (fun () ->
      let b = small () in
      Bitset.fill_row b ~tid:0 both ~off:0 ~len:2;
      Bitset.fill_row b ~tid:1 both ~off:0 ~len:1;
      Bitset.fill_row b ~tid:1 both ~off:0 ~len:1;
      Bitset.finish b);
  invalid "sparse item short of its count" (fun () ->
      let b = small () in
      List.iter (fun tid -> Bitset.fill_row b ~tid both ~off:0 ~len:1) [ 0; 1; 2 ];
      Bitset.finish b);
  (* the same rows, complete, pass *)
  let b = small () in
  Bitset.fill_row b ~tid:0 both ~off:0 ~len:2;
  Bitset.fill_row b ~tid:1 both ~off:0 ~len:1;
  Bitset.fill_row b ~tid:3 both ~off:0 ~len:1;
  Alcotest.(check (array (array int)))
    "complete rows" [| [| 0b1011 |]; [| 0 |] |] (Bitset.finish b)

let suite =
  [
    Alcotest.test_case "popcount vs bit loop" `Quick test_popcount;
    Alcotest.test_case "builder = naive fill" `Quick test_builder_vs_naive;
    Alcotest.test_case "builder rejects a tid out of range" `Quick test_tid_range;
    Alcotest.test_case "builder rejects a sparse item past its count" `Quick
      test_sparse_past_count;
    Alcotest.test_case "builder finish rejects an item short of its count"
      `Quick test_short_at_finish;
  ]
