open Ppdm_data
open Ppdm

type config = {
  scheme : Randomizer.t;
  universe : int;
  itemsets : Itemset.t list;
  max_frame : int;
  verify_scheme : Randomizer.t -> sizes:int list -> bool;
  snapshot : flush:bool -> string;
  request_shutdown : unit -> unit;
}

(* Sending can hit a peer that already went away (EPIPE / reset); a
   best-effort answer must not kill the session loop's own cleanup.  The
   session's configured frame cap applies symmetrically: what we refuse
   to read we also refuse to emit. *)
let send ~max_frame fd msg =
  match Framing.write ~max_frame fd (Wire.encode msg) with
  | () -> true
  | exception Unix.Unix_error _ -> false

let count_error code =
  Ppdm_obs.Metrics.incr ("server.errors." ^ Wire.error_code_name code)

let send_error ~max_frame fd code detail =
  count_error code;
  ignore (send ~max_frame fd (Wire.Error { code; detail }))

(* What a received report may use, fixed at handshake time. *)
type handshake = { allowed_sizes : (int, unit) Hashtbl.t }

let run config ~shards fd =
  let send fd msg = send ~max_frame:config.max_frame fd msg in
  let send_error fd code detail =
    send_error ~max_frame:config.max_frame fd code detail
  in
  let n_shards = Array.length shards in
  let next_shard = ref 0 in
  let handshaken : handshake option ref = ref None in
  Ppdm_obs.Metrics.incr "server.sessions";
  let handle_hello ~version ~sizes ~scheme_text =
    if !handshaken <> None then begin
      send_error fd Wire.Protocol_violation "duplicate hello";
      `Stop
    end
    else if version <> Wire.protocol_version then begin
      send_error fd Wire.Protocol_violation
        (Printf.sprintf "protocol version %d, server speaks %d" version
           Wire.protocol_version);
      `Stop
    end
    else if List.exists (fun m -> m < 0 || m > config.universe) sizes then begin
      send_error fd Wire.Protocol_violation
        (Printf.sprintf "transaction size outside [0, %d]" config.universe);
      `Stop
    end
    else begin
      (* A control-only session (snapshot / shutdown) declares no sizes
         and may omit the scheme; a reporting session must prove its
         operator parameters match ours at every size it will use. *)
      let verdict =
        if sizes = [] then `Ok
        else
          match Scheme_io.of_string scheme_text with
          | exception Failure msg -> `Bad_scheme msg
          | client_scheme ->
              if config.verify_scheme client_scheme ~sizes then `Ok
              else `Mismatch
      in
      match verdict with
      | `Bad_scheme msg ->
          send_error fd Wire.Protocol_violation ("unparseable scheme: " ^ msg);
          `Stop
      | `Mismatch ->
          send_error fd Wire.Scheme_mismatch
            "client operator parameters differ from the server scheme";
          `Stop
      | `Ok ->
          let allowed_sizes = Hashtbl.create 8 in
          List.iter (fun m -> Hashtbl.replace allowed_sizes m ()) sizes;
          handshaken := Some { allowed_sizes };
          if
            send fd
              (Wire.Welcome
                 { universe = config.universe; itemsets = config.itemsets })
          then `Continue
          else `Stop
    end
  in
  let handle_report hs ~size ~items =
    (* Reject, with a typed answer, anything the estimator could not
       absorb soundly: items outside the handshaked universe, or a size
       the handshake did not cover (its operator was never agreed). *)
    let max_item = if Itemset.is_empty items then -1 else Itemset.nth items (Itemset.cardinal items - 1) in
    if max_item >= config.universe then begin
      send_error fd Wire.Item_out_of_universe
        (Printf.sprintf "item %d outside universe %d" max_item config.universe);
      `Continue
    end
    else if not (Hashtbl.mem hs.allowed_sizes size) then begin
      send_error fd Wire.Size_not_covered
        (Printf.sprintf "size %d was not part of the handshake" size);
      `Continue
    end
    else begin
      let shard = shards.(!next_shard) in
      next_shard := (!next_shard + 1) mod n_shards;
      let ts =
        if Ppdm_obs.Metrics.enabled () then Ppdm_obs.Metrics.now_ns () else 0
      in
      ignore (Shard.submit shard (size, items, ts));
      Ppdm_obs.Metrics.incr "server.reports";
      `Continue
    end
  in
  let handle_message = function
    | Wire.Hello { version; sizes; scheme } ->
        handle_hello ~version ~sizes ~scheme_text:scheme
    | Wire.Report { size; items } -> (
        match !handshaken with
        | None ->
            send_error fd Wire.Protocol_violation "report before hello";
            `Stop
        | Some hs -> handle_report hs ~size ~items)
    | Wire.Snapshot_request { flush } ->
        if !handshaken = None then begin
          send_error fd Wire.Protocol_violation "snapshot-request before hello";
          `Stop
        end
        else begin
          Ppdm_obs.Metrics.incr "server.snapshots";
          let json =
            Ppdm_obs.Trace.with_ ~name:"server.snapshot" ~cat:"server"
              (fun () -> config.snapshot ~flush)
          in
          if send fd (Wire.Snapshot { json }) then `Continue else `Stop
        end
    | Wire.Shutdown ->
        config.request_shutdown ();
        ignore (send fd Wire.Bye);
        `Stop
    | Wire.Welcome _ | Wire.Snapshot _ | Wire.Bye | Wire.Error _ ->
        send_error fd Wire.Protocol_violation
          "server-to-client message on the client-to-server direction";
        `Stop
  in
  let reader = Framing.reader fd in
  let rec loop () =
    match Framing.read ~max_frame:config.max_frame reader with
    | Error Framing.Closed -> ()
    | Error (Framing.Truncated _) ->
        (* The peer vanished mid-frame: nothing to answer, just count. *)
        Ppdm_obs.Metrics.incr "server.frames.truncated"
    | Error (Framing.Bad_length n) ->
        send_error fd Wire.Bad_frame
          (Printf.sprintf "declared frame length %d" n)
    | Error (Framing.Too_large { declared; limit }) ->
        send_error fd Wire.Frame_too_large
          (Printf.sprintf "declared frame length %d exceeds cap %d" declared
             limit)
    | Ok payload -> (
        Ppdm_obs.Metrics.incr "server.frames";
        match Wire.decode payload with
        | Error msg -> send_error fd Wire.Bad_frame msg
        | Ok msg -> (
            match handle_message msg with
            | `Continue -> loop ()
            | `Stop -> ()))
  in
  match
    Ppdm_obs.Trace.with_ ~name:"server.session" ~cat:"server" loop
  with
  | () -> ()
  | exception Unix.Unix_error _ ->
      (* A reset/aborted socket ends the session, never the server. *)
      Ppdm_obs.Metrics.incr "server.sessions.aborted"
