(* The ingest service, tested at every layer: the binary message codec
   (generator-driven round-trips; strictness on truncation, trailing
   bytes, and garbage), the length-prefixed framing over real
   descriptors, the bounded ingest queues, and the server end to end
   over loopback TCP — sharded concurrent ingestion must equal a
   sequential fold bit for bit, and injected wire faults must leave the
   server serving. *)

open Ppdm_prng
open Ppdm_data
open Ppdm
open Ppdm_server
open Ppdm_check

(* ------------------------------------------------------- wire codec *)

let all_error_codes =
  [
    Wire.Frame_too_large;
    Wire.Bad_frame;
    Wire.Protocol_violation;
    Wire.Scheme_mismatch;
    Wire.Item_out_of_universe;
    Wire.Size_not_covered;
  ]

(* Every message kind, fields drawn from their full encodable ranges
   (the codec's @raise contract covers anything larger). *)
let message_gen =
  let open Gen in
  let raw =
    pair (int_range 0 7)
      (pair
         (pair (list ~max_len:5 (int_range 0 65535)) garbage_string)
         (pair
            (list ~max_len:3 (itemset ~universe:300))
            (pair (int_range 0 65535) bool)))
  in
  map
    ~print:(fun m -> Wire.message_name m)
    (fun (tag, ((sizes, text), (isets, (num, flag)))) ->
      let items =
        match isets with i :: _ -> i | [] -> Itemset.of_list []
      in
      match tag with
      | 0 -> Wire.Hello { version = num; sizes; scheme = text }
      | 1 -> Wire.Welcome { universe = num; itemsets = isets }
      | 2 -> Wire.Report { size = num; items }
      | 3 -> Wire.Snapshot_request { flush = flag }
      | 4 -> Wire.Snapshot { json = text }
      | 5 -> Wire.Shutdown
      | 6 -> Wire.Bye
      | _ ->
          Wire.Error
            {
              code = List.nth all_error_codes (num mod 6);
              detail = text;
            })
    raw

let message_equal a b =
  match (a, b) with
  | Wire.Hello h, Wire.Hello h' ->
      h.version = h'.version && h.sizes = h'.sizes && h.scheme = h'.scheme
  | Wire.Welcome w, Wire.Welcome w' ->
      w.universe = w'.universe
      && List.length w.itemsets = List.length w'.itemsets
      && List.for_all2 Itemset.equal w.itemsets w'.itemsets
  | Wire.Report r, Wire.Report r' ->
      r.size = r'.size && Itemset.equal r.items r'.items
  | Wire.Snapshot_request s, Wire.Snapshot_request s' -> s.flush = s'.flush
  | Wire.Snapshot s, Wire.Snapshot s' -> s.json = s'.json
  | Wire.Shutdown, Wire.Shutdown | Wire.Bye, Wire.Bye -> true
  | Wire.Error e, Wire.Error e' -> e.code = e'.code && e.detail = e'.detail
  | _ -> false

let test_wire_roundtrip () =
  Property.assert_ok
    (Property.check ~seed:11 ~count:500 ~name:"wire encode/decode round-trip"
       message_gen (fun m ->
         match Wire.decode (Wire.encode m) with
         | Ok m' -> message_equal m m'
         | Error _ -> false))

let test_wire_decode_total () =
  Property.assert_ok
    (Property.check ~seed:12 ~count:500 ~name:"decode never raises on garbage"
       Gen.garbage_string (fun s ->
         match Wire.decode (Bytes.of_string s) with
         | Ok _ | Error _ -> true))

(* Messages without a trailing free-text field have exactly one valid
   encoding length: every strict prefix and every padded extension must
   be rejected, not misparsed. *)
let test_wire_truncation_strict () =
  Property.assert_ok
    (Property.check ~seed:13 ~count:300 ~name:"prefixes and padding rejected"
       message_gen (fun m ->
         match m with
         | Wire.Hello _ | Wire.Snapshot _ | Wire.Error _ ->
             true (* trailing text: a prefix can be a valid shorter text *)
         | _ ->
             let b = Wire.encode m in
             let n = Bytes.length b in
             let prefixes_fail = ref true in
             for len = 0 to n - 1 do
               match Wire.decode (Bytes.sub b 0 len) with
               | Ok _ -> prefixes_fail := false
               | Error _ -> ()
             done;
             let padded = Bytes.extend b 0 1 in
             Bytes.set padded n '\x00';
             !prefixes_fail
             && (match Wire.decode padded with Ok _ -> false | Error _ -> true)))

(* ---------------------------------------------------------- framing *)

(* [f] gets a frame reader on the read end of a pipe, and the write end. *)
let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f (Framing.reader r) w)

(* [f] gets a frame reader on a file holding [bytes].  A file read fills
   the buffer as far as the file allows, so a stream longer than the
   buffer lands at known offsets of it, with no writer to run beside. *)
let with_file bytes f =
  let path = Filename.temp_file "framing" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f (Framing.reader fd)))

let write_raw w b = ignore (Unix.write w b 0 (Bytes.length b))

let header_declaring n =
  let h = Bytes.create 4 in
  Bytes.set_int32_be h 0 (Int32.of_int n);
  h

(* The bytes of one frame, as [Framing.write] sends them. *)
let frame_bytes payload =
  Bytes.cat (header_declaring (String.length payload)) (Bytes.of_string payload)

let read_err_testable =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Framing.read_error_to_string e))
    ( = )

let expect_frame ?max_frame r what payload =
  match Framing.read ?max_frame r with
  | Ok p -> Alcotest.(check string) what payload (Bytes.to_string p)
  | Error e -> Alcotest.fail (what ^ ": " ^ Framing.read_error_to_string e)

let expect_error ?max_frame r what err =
  Alcotest.(check (result reject read_err_testable))
    what (Error err) (Framing.read ?max_frame r)

let test_framing_roundtrip () =
  with_pipe (fun r w ->
      Framing.write w (Bytes.of_string "hello");
      Framing.write w (Bytes.of_string "x");
      Unix.close w;
      expect_frame r "frame 1" "hello";
      expect_frame r "frame 2" "x";
      expect_error r "clean EOF at a frame boundary" Framing.Closed;
      expect_error r "and again" Framing.Closed)

let test_framing_truncations () =
  with_pipe (fun r w ->
      (* 3 of 10 declared payload bytes arrive *)
      write_raw w (header_declaring 10);
      write_raw w (Bytes.of_string "abc");
      Unix.close w;
      expect_error r "payload truncated"
        (Framing.Truncated { expected = 10; got = 3 }));
  with_pipe (fun r w ->
      write_raw w (Bytes.of_string "ab");
      Unix.close w;
      expect_error r "header truncated"
        (Framing.Truncated { expected = 4; got = 2 }));
  (* EOF mid-header and mid-payload after frames the reader buffered in
     the same read *)
  List.iter
    (fun (what, tail, err) ->
      with_pipe (fun r w ->
          write_raw w
            (Bytes.concat Bytes.empty
               [ frame_bytes "first"; frame_bytes "second"; tail ]);
          Unix.close w;
          expect_frame r (what ^ ": frame 1") "first";
          expect_frame r (what ^ ": frame 2") "second";
          expect_error r what err))
    [
      ( "header truncated after buffered frames",
        Bytes.of_string "\000\000",
        Framing.Truncated { expected = 4; got = 2 } );
      ( "payload truncated after buffered frames",
        Bytes.cat (header_declaring 10) (Bytes.of_string "abc"),
        Framing.Truncated { expected = 10; got = 3 } );
    ];
  (* a payload larger than the 64 KB buffer, cut short past its end *)
  with_file
    (Bytes.cat (header_declaring 200_000) (Bytes.make 100_000 'z'))
    (fun r ->
      expect_error r "long payload truncated"
        (Framing.Truncated { expected = 200_000; got = 100_000 }))

let test_framing_bad_lengths () =
  with_pipe (fun r w ->
      write_raw w (header_declaring 0);
      expect_error r "zero length" (Framing.Bad_length 0));
  with_pipe (fun r w ->
      write_raw w (Bytes.make 4 '\xff');
      expect_error r "negative length (garbage prefix)" (Framing.Bad_length (-1)));
  with_pipe (fun r w ->
      write_raw w (header_declaring 65);
      expect_error ~max_frame:64 r "over the cap"
        (Framing.Too_large { declared = 65; limit = 64 }));
  (* a buffered frame ahead of a bad header still arrives *)
  with_pipe (fun r w ->
      write_raw w (Bytes.cat (frame_bytes "ok") (header_declaring 1_000_000));
      expect_frame ~max_frame:64 r "frame before the bad header" "ok";
      expect_error ~max_frame:64 r "then over the cap"
        (Framing.Too_large { declared = 1_000_000; limit = 64 }));
  Alcotest.check_raises "empty payload rejected"
    (Invalid_argument "Framing.write: empty payload") (fun () ->
      with_pipe (fun _ w -> Framing.write w Bytes.empty))

(* Regression: write used to accept any payload length, so an oversized
   frame died on the peer's read cap only after the bytes were already on
   the wire.  The writer now enforces the mirrored cap up front. *)
let test_framing_write_cap () =
  Alcotest.check_raises "over the write cap"
    (Invalid_argument "Framing.write: payload length 9 exceeds cap 8")
    (fun () -> with_pipe (fun _ w -> Framing.write ~max_frame:8 w (Bytes.make 9 'x')));
  (* a raised cap lets the same payload through, symmetric with read *)
  with_pipe (fun r w ->
      Framing.write ~max_frame:16 w (Bytes.make 9 'x');
      Unix.close w;
      expect_frame ~max_frame:16 r "frame arrives" (String.make 9 'x'))

(* The reader's buffer is 64 KB.  Many frames in one pipe write come out
   of one read one by one; in a longer stream frames straddle the
   buffer's end, and frames larger than it are copied out a refill at a
   time. *)
let test_framing_buffered () =
  let small i =
    String.init (1 + (i * 7 mod 61)) (fun j -> Char.chr (65 + ((i + j) mod 26)))
  in
  let stream payloads = Bytes.concat Bytes.empty (List.map frame_bytes payloads) in
  let expect_all r what payloads =
    List.iteri (fun i p -> expect_frame r (Printf.sprintf "%s, frame %d" what i) p) payloads;
    expect_error r (what ^ ": closed") Framing.Closed
  in
  (* 200 frames, ~7 KB, all in the pipe before the first read *)
  let few = List.init 200 small in
  with_pipe (fun r w ->
      write_raw w (stream few);
      Unix.close w;
      expect_all r "one read" few);
  (* 4000 frames, ~140 KB: the buffer refills mid-frame *)
  let many = List.init 4000 small in
  with_file (stream many) (fun r -> expect_all r "longer than the buffer" many);
  (* a header, then a payload, across the buffer's end at byte 65536 *)
  List.iter
    (fun (what, at, next) ->
      let payloads = [ String.make (at - 4) 'a'; next; "tail" ] in
      with_file (stream payloads) (fun r -> expect_all r what payloads))
    [
      ("header straddles the buffer's end", 65534, "straddler");
      ("payload straddles the buffer's end", 65520, String.make 40 'p');
    ];
  (* a frame above the 64 KB buffer but within the cap, written
     from another domain while the reader drains the pipe *)
  let big = String.init 200_000 (fun i -> Char.chr (i mod 251)) in
  with_pipe (fun r w ->
      let writer =
        Domain.spawn (fun () ->
            Framing.write w (Bytes.of_string "before");
            Framing.write w (Bytes.of_string big);
            Framing.write w (Bytes.of_string "after"))
      in
      expect_frame r "small frame" "before";
      expect_frame r "frame larger than the buffer" big;
      expect_frame r "small frame after it" "after";
      Domain.join writer)

(* ------------------------------------------------------------ ingest *)

let test_ingest_fifo () =
  let q = Ingest.create ~capacity:4 in
  List.iter (fun i -> Alcotest.(check bool) "push" true (Ingest.push q i)) [ 1; 2; 3 ];
  Alcotest.(check int) "depth" 3 (Ingest.depth q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ingest.pop q);
  Ingest.done_with q;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ingest.pop q);
  Ingest.done_with q;
  Ingest.close q;
  Alcotest.(check bool) "push after close" false (Ingest.push q 9);
  Alcotest.(check (option int)) "drain after close" (Some 3) (Ingest.pop q);
  Ingest.done_with q;
  Alcotest.(check (option int)) "closed and drained" None (Ingest.pop q)

let test_ingest_batches () =
  let q = Ingest.create ~capacity:8 in
  List.iter (fun i -> ignore (Ingest.push q i)) [ 1; 2; 3; 4; 5 ];
  Ingest.close q;
  Alcotest.(check (array int)) "greedy batch up to max" [| 1; 2; 3 |]
    (Ingest.pop_batch q ~max:3);
  Ingest.done_with q;
  Alcotest.(check (array int)) "remainder" [| 4; 5 |]
    (Ingest.pop_batch q ~max:3);
  Ingest.done_with q;
  Alcotest.(check (array int)) "closed and drained" [||]
    (Ingest.pop_batch q ~max:3)

(* A producer blocked on a queue smaller than the batch size: every
   pop_batch must wake it, so plain batch drains alone carry the whole
   stream through — nothing lost, reordered, or deadlocked. *)
let test_ingest_linger_with_blocked_producer () =
  let q = Ingest.create ~capacity:2 in
  let n = 60 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          ignore (Ingest.push q i)
        done)
  in
  let out = ref [] in
  let rec drain () =
    let batch = Ingest.pop_batch q ~max:5 in
    if Array.length batch > 0 then begin
      Array.iter (fun v -> out := v :: !out) batch;
      Ingest.done_with q;
      drain ()
    end
  in
  let closer =
    Domain.spawn (fun () ->
        Domain.join producer;
        Ingest.close q)
  in
  drain ();
  Domain.join closer;
  Alcotest.(check (list int)) "batches lose nothing"
    (List.init n (fun i -> i + 1))
    (List.rev !out)

(* A queue bound far below the element count: the producer must block on
   the full queue and resume, with nothing lost or reordered. *)
let test_ingest_backpressure () =
  let q = Ingest.create ~capacity:2 in
  let n = 200 in
  let consumer =
    Domain.spawn (fun () ->
        let out = ref [] in
        let rec go () =
          match Ingest.pop q with
          | None -> List.rev !out
          | Some v ->
              out := v :: !out;
              if v mod 16 = 0 then Unix.sleepf 0.001;
              Ingest.done_with q;
              go ()
        in
        go ())
  in
  for i = 1 to n do
    ignore (Ingest.push q i)
  done;
  Ingest.wait_idle q;
  Ingest.close q;
  Alcotest.(check (list int)) "everything arrives in order"
    (List.init n (fun i -> i + 1))
    (Domain.join consumer)

(* ------------------------------------------------- loopback end-to-end *)

let e2e_case () =
  let db =
    Db.create ~universe:10
      (Array.init 200 (fun i ->
           Itemset.of_list [ i mod 10; ((i * 3) + 1) mod 10 ]))
  in
  let scheme = Randomizer.uniform ~universe:10 ~p_keep:0.8 ~p_add:0.1 in
  let rng = Rng.create ~seed:5 () in
  let data = Ppdm_check.Draw.tagged scheme rng db in
  let itemsets =
    [ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 2 ]; Itemset.of_list [ 7 ] ]
  in
  (scheme, itemsets, data)

let test_e2e_bit_identical () =
  let scheme, itemsets, data = e2e_case () in
  List.iter
    (fun (jobs, shards) ->
      match
        Oracle.server_matches_sequential ~jobs ~shards ~clients:3 ~scheme
          ~itemsets ~data
      with
      | Ok () -> ()
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "jobs %d, shards %d: %s" jobs shards e))
    [ (1, 1); (2, 2); (4, 4) ]

let test_fault_scenarios () =
  List.iter
    (fun (name, scenario) ->
      match scenario () with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [
      ("oversized frame", Fault.server_oversized_frame_rejected);
      ("malformed length", Fault.server_malformed_length_rejected);
      ("truncated frame", Fault.server_truncated_frame_tolerated);
      ("mid-session disconnect", Fault.server_mid_session_disconnect);
      ("scheme mismatch", Fault.server_scheme_mismatch_rejected);
      ("invalid reports", Fault.server_invalid_reports_rejected);
    ]

(* The wire snapshot is real JSON with the documented shape, before and
   after ingestion. *)
let test_snapshot_json () =
  let scheme, itemsets, data = e2e_case () in
  let server =
    Serve.start
      { (Serve.default_config ~scheme ~itemsets) with jobs = 2; shards = 2 }
  in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.stop server))
    (fun () ->
      let field name = function
        | Ppdm_obs.Json.Obj fields -> List.assoc_opt name fields
        | _ -> None
      in
      let parse json =
        match Ppdm_obs.Json.parse json with
        | Ok v -> v
        | Error e -> Alcotest.fail ("snapshot does not parse: " ^ e)
      in
      let c = Client.connect ~port:(Serve.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let sizes =
            List.sort_uniq compare (Array.to_list (Array.map fst data))
          in
          ignore (Client.handshake c ~scheme ~sizes ());
          let empty = parse (Client.snapshot c ~flush:false) in
          (match field "itemsets" empty with
          | Some (Ppdm_obs.Json.List (first :: _)) ->
              Alcotest.(check (option (of_pp Fmt.nop)))
                "no support before any report" None (field "support" first);
              Alcotest.(check bool) "observed 0" true
                (field "observed" first = Some (Ppdm_obs.Json.Int 0))
          | _ -> Alcotest.fail "snapshot lacks an itemsets list");
          Array.iter (fun (sz, y) -> Client.report c ~size:sz y) data;
          let full = parse (Client.snapshot c ~flush:true) in
          Alcotest.(check bool) "universe served" true
            (field "universe" full = Some (Ppdm_obs.Json.Int 10));
          Alcotest.(check bool) "every report counted" true
            (field "reports" full
            = Some (Ppdm_obs.Json.Int (Array.length data)));
          (match field "metrics" full with
          | Some (Ppdm_obs.Json.Obj _ as m) ->
              Alcotest.(check bool) "metrics.folded counts every report" true
                (field "folded" m
                = Some (Ppdm_obs.Json.Int (Array.length data)));
              Alcotest.(check bool) "metrics.queued drained after flush" true
                (field "queued" m = Some (Ppdm_obs.Json.Int 0));
              Alcotest.(check bool) "metrics.shards reflects config" true
                (field "shards" m = Some (Ppdm_obs.Json.Int 2))
          | _ -> Alcotest.fail "snapshot lacks a metrics object");
          match field "itemsets" full with
          | Some (Ppdm_obs.Json.List (first :: _)) ->
              Alcotest.(check bool) "observed all reports" true
                (field "observed" first
                = Some (Ppdm_obs.Json.Int (Array.length data)));
              Alcotest.(check bool) "support is a float" true
                (match field "support" first with
                | Some (Ppdm_obs.Json.Float _) -> true
                | _ -> false)
          | _ -> Alcotest.fail "snapshot lacks an itemsets list"))

(* A tracked itemset must be one a report can contain: the config is
   refused before any port is bound. *)
let test_tracked_itemsets_validated () =
  let scheme = Randomizer.uniform ~universe:5 ~p_keep:0.7 ~p_add:0.1 in
  List.iter
    (fun (itemsets, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Serve.start (Serve.default_config ~scheme ~itemsets))))
    [
      ([ Itemset.of_list [ 1; 7 ] ], "Serve: tracked item outside the universe");
      ([ Itemset.singleton 5 ], "Serve: tracked item outside the universe");
      ([ Itemset.singleton 0; Itemset.empty ], "Serve: empty tracked itemset");
    ]

let test_shard_fold_differential () =
  (match Selftest.shard_fold_differential ~seed:17 ~count:60 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let scheme = Randomizer.uniform ~universe:4 ~p_keep:0.8 ~p_add:0.1 in
  let itemsets = [ Itemset.singleton 1; Itemset.of_list [ 1; 2 ] ] in
  let shard = Shard.create ~scheme ~itemsets ~capacity:4 in
  Alcotest.check_raises "one accumulator per tracked itemset"
    (Invalid_argument "Shard.merge_into: one accumulator per tracked itemset")
    (fun () ->
      Shard.merge_into shard [ Stream.create ~scheme ~itemset:(Itemset.singleton 1) ]);
  (* a size outside [0, universe] rejects its whole batch *)
  List.iter
    (fun size -> ignore (Shard.submit shard (size, Itemset.singleton 1, 0)))
    [ 2; 5 ];
  Shard.close shard;
  Alcotest.check_raises "size above the universe"
    (Invalid_argument "Shard.fold_batch: size outside [0, universe]")
    (fun () -> Shard.fold_loop shard ~batch:2);
  let totals = List.map (fun itemset -> Stream.create ~scheme ~itemset) itemsets in
  Shard.merge_into shard totals;
  Alcotest.(check (list int)) "nothing of the batch folded" [ 0; 0 ]
    (List.map Stream.observed totals)

let suite =
  [
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire decode total" `Quick test_wire_decode_total;
    Alcotest.test_case "wire truncation strict" `Quick test_wire_truncation_strict;
    Alcotest.test_case "framing round-trip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing truncations" `Quick test_framing_truncations;
    Alcotest.test_case "framing bad lengths" `Quick test_framing_bad_lengths;
    Alcotest.test_case "framing write cap" `Quick test_framing_write_cap;
    Alcotest.test_case "framing buffered reader" `Quick test_framing_buffered;
    Alcotest.test_case "ingest fifo" `Quick test_ingest_fifo;
    Alcotest.test_case "ingest batches" `Quick test_ingest_batches;
    Alcotest.test_case "ingest linger with blocked producer" `Quick
      test_ingest_linger_with_blocked_producer;
    Alcotest.test_case "ingest backpressure" `Quick test_ingest_backpressure;
    Alcotest.test_case "indexed fold == Stream.observe per itemset" `Quick
      test_shard_fold_differential;
    Alcotest.test_case "e2e bit-identical at any jobs/shards" `Quick
      test_e2e_bit_identical;
    Alcotest.test_case "fault scenarios" `Quick test_fault_scenarios;
    Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
    Alcotest.test_case "tracked itemsets validated" `Quick
      test_tracked_itemsets_validated;
  ]
