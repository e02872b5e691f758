open Ppdm

type t = {
  sock : Unix.file_descr;
  reader : Framing.reader;
  max_frame : int;
  mutable closed : bool;
}

exception Server_error of Wire.error_code * string

let connect ?(retries = 100) ?(max_frame = Framing.default_max_frame) ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec attempt left =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect sock addr with
    | () -> { sock; reader = Framing.reader sock; max_frame; closed = false }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _)
      when left > 1 ->
        Unix.close sock;
        Unix.sleepf 0.01;
        attempt (left - 1)
    | exception e ->
        Unix.close sock;
        raise e
  in
  attempt (max 1 retries)

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

(* The cap applies on both directions: emitting a frame the peer's
   reader is guaranteed to reject would only surface as an opaque
   remote [Frame_too_large]. *)
let send t msg = Framing.write ~max_frame:t.max_frame t.sock (Wire.encode msg)

let send_raw t raw =
  let rec go pos =
    if pos < Bytes.length raw then
      go (pos + Unix.write t.sock raw pos (Bytes.length raw - pos))
  in
  go 0

let read t =
  match Framing.read ~max_frame:t.max_frame t.reader with
  | Error e -> Error (Framing.read_error_to_string e)
  | Ok payload -> Wire.decode payload

let read_exn t =
  match read t with
  | Ok (Wire.Error { code; detail }) -> raise (Server_error (code, detail))
  | Ok msg -> msg
  | Error msg -> failwith ("ppdm client: " ^ msg)

let handshake t ?scheme ~sizes () =
  let scheme_text =
    match (scheme, sizes) with
    | Some s, _ -> Scheme_io.to_string s ~sizes
    | None, [] -> ""
    | None, _ :: _ ->
        invalid_arg "Client.handshake: sizes declared without a scheme"
  in
  send t
    (Wire.Hello
       { version = Wire.protocol_version; sizes; scheme = scheme_text });
  match read_exn t with
  | Wire.Welcome { universe; itemsets } -> (universe, itemsets)
  | msg ->
      failwith
        ("ppdm client: expected welcome, got " ^ Wire.message_name msg)

let report t ~size items = send t (Wire.Report { size; items })

let snapshot t ~flush =
  send t (Wire.Snapshot_request { flush });
  match read_exn t with
  | Wire.Snapshot { json } -> json
  | msg ->
      failwith
        ("ppdm client: expected snapshot, got " ^ Wire.message_name msg)

let shutdown t =
  match
    send t Wire.Shutdown;
    read t
  with
  | Ok Wire.Bye | Error _ -> ()
  | Ok (Wire.Error { code; detail }) -> raise (Server_error (code, detail))
  | Ok msg ->
      failwith ("ppdm client: expected bye, got " ^ Wire.message_name msg)
  | exception Unix.Unix_error _ -> ()
