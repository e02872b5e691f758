open Ppdm_prng
open Ppdm_data
open Ppdm_runtime

let pool_error_propagates ~jobs ~k ~n =
  if k < 0 || k >= n then invalid_arg "Fault.pool_error_propagates: k outside [0, n)";
  Pool.with_pool ~jobs (fun pool ->
      let ran = Array.make n false in
      let first =
        Fun.protect ~finally:Pool.clear_fault_injection (fun () ->
            Pool.inject_task_failure ~k;
            match
              Pool.run pool
                (Array.init n (fun i -> fun () -> ran.(i) <- true))
            with
            | _ -> Error "injected fault did not surface"
            | exception Pool.Injected_fault _ ->
                let missing =
                  List.filter
                    (fun i -> i <> k && not ran.(i))
                    (List.init n Fun.id)
                in
                if missing <> [] then
                  Error
                    (Printf.sprintf "tasks lost after fault: %s"
                       (String.concat ","
                          (List.map string_of_int missing)))
                else if ran.(k) then
                  Error "the armed task ran its body anyway"
                else Ok ()
            | exception e ->
                Error ("unexpected exception: " ^ Printexc.to_string e))
      in
      match first with
      | Error _ as e -> e
      | Ok () -> (
          (* the pool must remain usable: workers never die *)
          match Pool.run pool (Array.init 4 (fun i -> fun () -> i * i)) with
          | [| 0; 1; 4; 9 |] -> Ok ()
          | _ -> Error "pool returned wrong results after a fault"
          | exception e ->
              Error ("pool unusable after a fault: " ^ Printexc.to_string e)))

let map_reduce_fault_no_partial ~jobs =
  Pool.with_pool ~jobs (fun pool ->
      Fun.protect ~finally:Pool.clear_fault_injection (fun () ->
          Pool.inject_task_failure ~k:1;
          let rng = Rng.create ~seed:7 () in
          match
            Pool.map_reduce pool ~rng ~n:5000 ~chunk:512
              ~map:(fun _ ~pos:_ ~len -> len)
              ~reduce:( + ) ()
          with
          | _ -> Error "fault did not surface through map_reduce"
          | exception Pool.Injected_fault _ -> Ok ()
          | exception e ->
              Error ("unexpected exception: " ^ Printexc.to_string e)))

let with_temp_db f =
  let db =
    Db.create ~universe:6
      (Array.map Itemset.of_list [| [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] |])
  in
  let path = Filename.temp_file "ppdm_fault" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file path db;
      Fun.protect ~finally:Io.clear_fault_injection (fun () -> f db path))

(* The same rows as a tagged file, folded: a truncated body fails the
   fold after it has seen the surviving rows, it never returns. *)
let tagged_truncation_rejected db =
  let path = Filename.temp_file "ppdm_fault" ".tagged" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_tagged path ~universe:(Db.universe db)
        (Array.map (fun tx -> (Itemset.cardinal tx, tx)) (Db.transactions db));
      Io.inject_read_truncation ~lines:3;
      match Io.read_tagged path ~init:(fun _ -> 0) ~f:(fun n _ -> n + 1) with
      | n, _ -> Error (Printf.sprintf "truncated tagged fold returned %d rows" n)
      | exception Failure _ -> Ok ()
      | exception e -> Error ("undocumented exception: " ^ Printexc.to_string e))

let io_truncated_read_rejected () =
  with_temp_db (fun db path ->
      (* header + 2 of the 4 declared transactions survive *)
      Io.inject_read_truncation ~lines:3;
      let truncated =
        match Io.read_file path with
        | partial ->
            Error
              (Printf.sprintf
                 "truncated read returned a partial database (%d transactions)"
                 (Db.length partial))
        | exception Failure _ -> Ok ()
        | exception e ->
            Error ("undocumented exception: " ^ Printexc.to_string e)
      in
      match truncated with
      | Error _ as e -> e
      | Ok () -> (
          Io.clear_fault_injection ();
          match Io.read_file path with
          | full when Db.length full = Db.length db ->
              tagged_truncation_rejected db
          | full ->
              Error
                (Printf.sprintf "clean re-read lost transactions: %d of %d"
                   (Db.length full) (Db.length db))
          | exception e ->
              Error ("clean re-read failed: " ^ Printexc.to_string e)))

let io_truncated_header_rejected () =
  with_temp_db (fun _ path ->
      Io.inject_read_truncation ~lines:0;
      match Io.read_file path with
      | _ -> Error "header truncation returned a database"
      | exception Failure _ -> Ok ()
      | exception e ->
          Error ("undocumented exception: " ^ Printexc.to_string e))

(* ------------------------------------------------ server-layer scenarios *)

module Serve = Ppdm_server.Serve
module Sclient = Ppdm_server.Client
module Wire = Ppdm_server.Wire
module Framing = Ppdm_server.Framing

open Ppdm

(* Every scenario runs against a real server on an ephemeral loopback
   port; the fault is injected as raw bytes on the socket, and the
   recovery assertion is always the same — a fresh session still gets a
   snapshot, i.e. a misbehaving client took down nothing but itself. *)
let server_scheme = Randomizer.uniform ~universe:16 ~p_keep:0.7 ~p_add:0.05

let with_server f =
  let server =
    Serve.start
      {
        (Serve.default_config ~scheme:server_scheme
           ~itemsets:[ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 2 ] ])
        with
        jobs = 2;
        shards = 2;
        batch = 8;
      }
  in
  Fun.protect ~finally:(fun () -> ignore (Serve.stop server)) (fun () -> f server)

let with_client server f =
  let c = Sclient.connect ~port:(Serve.port server) () in
  Fun.protect ~finally:(fun () -> Sclient.close c) (fun () -> f c)

let still_serving server =
  with_client server (fun c ->
      ignore (Sclient.handshake c ~sizes:[] ());
      let json = Sclient.snapshot c ~flush:false in
      if String.length json > 0 && json.[0] = '{' then Ok ()
      else Error "snapshot after the fault is not a JSON object")

let header_declaring n =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int n);
  header

let server_oversized_frame_rejected () =
  with_server (fun server ->
      let reply =
        with_client server (fun c ->
            ignore (Sclient.handshake c ~sizes:[] ());
            Sclient.send_raw c (header_declaring (Framing.default_max_frame + 1));
            Sclient.read c)
      in
      match reply with
      | Ok (Wire.Error { code = Wire.Frame_too_large; _ }) -> still_serving server
      | Ok m ->
          Error ("expected a frame-too-large error, got " ^ Wire.message_name m)
      | Error e -> Error ("expected a frame-too-large error, got " ^ e))

let server_malformed_length_rejected () =
  with_server (fun server ->
      let reply =
        with_client server (fun c ->
            ignore (Sclient.handshake c ~sizes:[] ());
            Sclient.send_raw c (header_declaring 0);
            Sclient.read c)
      in
      match reply with
      | Ok (Wire.Error { code = Wire.Bad_frame; _ }) -> still_serving server
      | Ok m -> Error ("expected a bad-frame error, got " ^ Wire.message_name m)
      | Error e -> Error ("expected a bad-frame error, got " ^ e))

let server_truncated_frame_tolerated () =
  with_server (fun server ->
      with_client server (fun c ->
          ignore (Sclient.handshake c ~sizes:[] ());
          (* declare 64 payload bytes, deliver 6, vanish *)
          let raw = Bytes.make 10 '\x00' in
          Bytes.blit (header_declaring 64) 0 raw 0 4;
          Sclient.send_raw c raw);
      still_serving server)

(* Poll until the shards have folded [expected] reports: a disconnect
   leaves the last reports still in the socket buffer and shard queues,
   so ingestion completes eventually rather than synchronously. *)
let rec eventually_folded server ~expected ~tries =
  match Serve.snapshot_estimates server ~flush:true with
  | (_, Some e) :: _ when e.Estimator.n_transactions = expected -> Ok ()
  | _ when tries = 0 ->
      Error
        (Printf.sprintf "reports lost after disconnect: expected %d folded"
           expected)
  | _ ->
      Unix.sleepf 0.02;
      eventually_folded server ~expected ~tries:(tries - 1)

let server_mid_session_disconnect () =
  with_server (fun server ->
      let sent = 5 in
      with_client server (fun c ->
          ignore (Sclient.handshake c ~scheme:server_scheme ~sizes:[ 3 ] ());
          for _ = 1 to sent do
            Sclient.report c ~size:3 (Itemset.of_list [ 0; 1; 2 ])
          done);
      (* the abrupt close must lose no report already on the wire, and
         must leave the server serving *)
      match eventually_folded server ~expected:sent ~tries:150 with
      | Error _ as e -> e
      | Ok () -> still_serving server)

let server_scheme_mismatch_rejected () =
  with_server (fun server ->
      let refused ~scheme ~sizes ~code what =
        with_client server (fun c ->
            match Sclient.handshake c ~scheme ~sizes () with
            | _ -> Error (what ^ " was welcomed")
            | exception Sclient.Server_error (got, _) when got = code -> Ok ()
            | exception e ->
                Error (what ^ ": wrong refusal " ^ Printexc.to_string e))
      in
      let other = Randomizer.uniform ~universe:16 ~p_keep:0.3 ~p_add:0.2 in
      match
        refused ~scheme:other ~sizes:[ 3 ] ~code:Wire.Scheme_mismatch
          "a mismatched scheme"
      with
      | Error _ as e -> e
      | Ok () -> (
          match
            refused ~scheme:server_scheme ~sizes:[ 3; 17 ]
              ~code:Wire.Protocol_violation "a size above the universe"
          with
          | Error _ as e -> e
          | Ok () -> still_serving server))

let server_invalid_reports_rejected () =
  with_server (fun server ->
      with_client server (fun c ->
          ignore (Sclient.handshake c ~scheme:server_scheme ~sizes:[ 2 ] ());
          (* item outside the universe: typed error, session continues *)
          Sclient.report c ~size:2 (Itemset.of_list [ 0; 99 ]);
          match Sclient.read c with
          | Ok (Wire.Error { code = Wire.Item_out_of_universe; _ }) -> (
              (* size outside the handshake: same deal *)
              Sclient.report c ~size:5 (Itemset.of_list [ 0; 1 ]);
              match Sclient.read c with
              | Ok (Wire.Error { code = Wire.Size_not_covered; _ }) -> (
                  (* and a valid report on the same session still lands *)
                  Sclient.report c ~size:2 (Itemset.of_list [ 0; 1 ]);
                  ignore (Sclient.snapshot c ~flush:true);
                  match Serve.snapshot_estimates server ~flush:true with
                  | (_, Some e) :: _ when e.Estimator.n_transactions = 1 ->
                      Ok ()
                  | (_, Some e) :: _ ->
                      Error
                        (Printf.sprintf
                           "expected exactly the 1 valid report folded, got %d"
                           e.Estimator.n_transactions)
                  | _ -> Error "no estimate after a valid report")
              | Ok m ->
                  Error
                    ("expected a size-not-covered error, got "
                    ^ Wire.message_name m)
              | Error e -> Error ("expected a size-not-covered error, got " ^ e))
          | Ok m ->
              Error
                ("expected an item-out-of-universe error, got "
                ^ Wire.message_name m)
          | Error e ->
              Error ("expected an item-out-of-universe error, got " ^ e)))

let client_oversized_send_rejected () =
  with_server (fun server ->
      let c = Sclient.connect ~port:(Serve.port server) ~max_frame:32 () in
      let verdict =
        Fun.protect
          ~finally:(fun () -> Sclient.close c)
          (fun () ->
            (* 24 items encode to well over the 32-byte cap; the client
               must refuse locally instead of emitting a frame the peer
               is guaranteed to reject. *)
            let big = Itemset.of_list (List.init 24 Fun.id) in
            match Sclient.report c ~size:24 big with
            | () -> Error "an oversized frame was written"
            | exception Invalid_argument _ -> Ok ()
            | exception e ->
                Error
                  ("expected Invalid_argument from the capped send, got "
                  ^ Printexc.to_string e))
      in
      (* nothing reached the wire, so the server is untouched *)
      match verdict with Error _ as e -> e | Ok () -> still_serving server)

(* ------------------------------------------------- admin-plane scenarios *)

module Admin = Ppdm_server.Admin

(* Admin scenarios run with the admin plane on (ephemeral port) and a
   deliberately fast sampler, inject the fault over the admin socket or
   its timing, and then assert the one invariant that matters: the data
   plane is {e bit-identical} to a sequential fold of the same reports —
   the admin plane may degrade, the estimates may not move. *)
let with_admin_server f =
  let server =
    Serve.start
      {
        (Serve.default_config ~scheme:server_scheme
           ~itemsets:[ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 2 ] ])
        with
        jobs = 2;
        shards = 2;
        batch = 8;
        admin_port = Some 0;
        sampler_period_ns = 1_000_000;
      }
  in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.stop server))
    (fun () ->
      match Serve.admin_port server with
      | None -> Error "admin plane configured but no admin port bound"
      | Some admin_port -> f server admin_port)

(* The deterministic report set every admin scenario replays. *)
let admin_reports =
  Array.init 40 (fun i ->
      ((i mod 3) + 1, Itemset.of_list [ i mod 16; (i * 7) mod 16 ]))

let send_reports server =
  with_client server (fun c ->
      ignore (Sclient.handshake c ~scheme:server_scheme ~sizes:[ 1; 2; 3 ] ());
      Array.iter (fun (sz, y) -> Sclient.report c ~size:sz y) admin_reports;
      ignore (Sclient.snapshot c ~flush:false))

let data_plane_identical server =
  let served = Serve.snapshot_estimates server ~flush:true in
  let rec check = function
    | [] -> Ok ()
    | (itemset, est) :: rest -> (
        let acc = Stream.create ~scheme:server_scheme ~itemset in
        Array.iter (fun (sz, y) -> Stream.observe acc ~size:sz y) admin_reports;
        match est with
        | None -> Error (Itemset.to_string itemset ^ ": no estimate served")
        | Some e ->
            let e' = Stream.estimate acc in
            if
              e.Estimator.n_transactions = e'.Estimator.n_transactions
              && e.Estimator.support = e'.Estimator.support
              && e.Estimator.sigma = e'.Estimator.sigma
            then check rest
            else
              Error
                (Itemset.to_string itemset
                ^ ": estimates differ from the sequential fold"))
  in
  check served

(* Raw bytes to the admin port, response (or closed-connection) read
   back — Admin.fetch only speaks well-formed GET. *)
let admin_raw ~port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let b = Bytes.of_string bytes in
      let rec write off =
        if off < Bytes.length b then
          write (off + Unix.write fd b off (Bytes.length b - off))
      in
      write 0;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 512 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let admin_garbage_request_rejected () =
  with_admin_server (fun server port ->
      send_reports server;
      let reply = admin_raw ~port "\x00\xffnot http at all\r\n\r\n" in
      if not (starts_with ~prefix:"HTTP/1.0 400" reply) then
        Error
          (Printf.sprintf "garbage request got %S, expected a 400"
             (String.sub reply 0 (min 32 (String.length reply))))
      else
        match Admin.fetch ~port "/metrics" with
        | Ok (200, _) -> data_plane_identical server
        | Ok (status, _) ->
            Error
              (Printf.sprintf "admin loop wedged after garbage: HTTP %d" status)
        | Error e -> Error ("admin loop wedged after garbage: " ^ e))

let admin_oversized_request_rejected () =
  with_admin_server (fun server port ->
      send_reports server;
      (* headers that never terminate, well past the 8 KiB request cap *)
      let reply =
        admin_raw ~port
          ("GET /metrics HTTP/1.0\r\n" ^ String.make 20_000 'x')
      in
      if not (starts_with ~prefix:"HTTP/1.0 413" reply) then
        Error
          (Printf.sprintf "oversized request got %S, expected a 413"
             (String.sub reply 0 (min 32 (String.length reply))))
      else
        match Admin.fetch ~port "/healthz" with
        | Ok (200, _) -> data_plane_identical server
        | Ok (status, _) ->
            Error
              (Printf.sprintf "admin loop wedged after oversize: HTTP %d"
                 status)
        | Error e -> Error ("admin loop wedged after oversize: " ^ e))

let admin_scrape_racing_shutdown () =
  with_admin_server (fun server port ->
      send_reports server;
      (* Capture the flushed estimates before anything stops, then race
         a scraping domain against the shutdown.  Every fetch must
         return (success or a clean connection error), never hang or
         corrupt anything. *)
      let before = data_plane_identical server in
      match before with
      | Error _ as e -> e
      | Ok () ->
          let scrapes = Atomic.make 0 in
          let scraper =
            Domain.spawn (fun () ->
                let rec go n =
                  match Admin.fetch ~port "/metrics" with
                  | Ok _ ->
                      Atomic.incr scrapes;
                      if n > 0 then go (n - 1)
                  | Error _ -> () (* listener gone: the race resolved *)
                in
                go 500)
          in
          Unix.sleepf 0.005;
          ignore (Serve.stop server);
          Domain.join scraper;
          if Atomic.get scrapes = 0 then
            Error "no scrape ever succeeded before shutdown"
          else Ok ())

let admin_sampler_during_quiesce () =
  with_admin_server (fun server _port ->
      send_reports server;
      (* The 1ms sampler is ticking throughout; repeated flushed
         snapshots (quiesce barriers) must all equal the sequential
         fold. *)
      let rec go n =
        if n = 0 then Ok ()
        else
          match data_plane_identical server with
          | Ok () ->
              Unix.sleepf 0.002;
              go (n - 1)
          | Error _ as e -> e
      in
      go 10)

let io_fimi_truncation_is_silent () =
  let db =
    Db.create ~universe:6
      (Array.map Itemset.of_list [| [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] |])
  in
  let path = Filename.temp_file "ppdm_fault" ".fimi" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_fimi path db;
      Fun.protect ~finally:Io.clear_fault_injection (fun () ->
          Io.inject_read_truncation ~lines:2;
          match Io.read_fimi path with
          | partial when Db.length partial = 2 -> Ok ()
          | partial ->
              Error
                (Printf.sprintf "expected 2 surviving transactions, got %d"
                   (Db.length partial))
          | exception e ->
              Error
                ("FIMI truncation should be silent, got "
                ^ Printexc.to_string e)))
