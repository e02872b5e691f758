(* The admin plane: a second loopback listener speaking just enough
   HTTP/1.0 for a metrics scraper and a health prober — GET /metrics,
   /healthz, /readyz, one request per connection, Connection: close.

   It shares nothing with the data plane but the [stop] flag and the
   read-only probe closures, so a slow or hostile admin client can stall
   only the admin loop, never ingest. *)

type handlers = {
  metrics : unit -> string;
      (* rendered on demand; an exception answers 500, never kills the loop *)
  healthy : unit -> bool;
  ready : unit -> bool * string; (* verdict + reason (the response body) *)
}

let max_request = 8192

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

(* Pure request -> response mapping.  [request] is everything up to (not
   including) the header terminator. *)
let handle_request handlers request =
  let first_line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> (
        match String.index_opt request '\n' with
        | Some i -> String.sub request 0 i
        | None -> request)
  in
  match String.split_on_char ' ' first_line with
  | [ meth; path; version ]
    when version = "HTTP/1.0" || version = "HTTP/1.1" -> (
      if meth <> "GET" then (405, "text/plain", "only GET is served\n")
      else
        match path with
        | "/metrics" -> (
            match handlers.metrics () with
            | body -> (200, openmetrics_content_type, body)
            | exception _ -> (500, "text/plain", "metrics render failed\n"))
        | "/healthz" ->
            if handlers.healthy () then (200, "text/plain", "ok\n")
            else (503, "text/plain", "unhealthy\n")
        | "/readyz" ->
            let ready, reason = handlers.ready () in
            if ready then (200, "text/plain", reason ^ "\n")
            else (503, "text/plain", reason ^ "\n")
        | _ -> (404, "text/plain", "unknown path\n"))
  | _ -> (400, "text/plain", "malformed request line\n")

let response_bytes (status, content_type, body) =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status (status_text status) content_type (String.length body) body

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* Read until the blank line ending the headers, a hard size cap, or a
   1s socket timeout.  [Error status] short-circuits to an error reply. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let terminated s =
    let has sub =
      let ls = String.length sub and l = String.length s in
      let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
      go (max 0 (l - 512 - String.length sub))
    in
    has "\r\n\r\n" || has "\n\n"
  in
  let rec go () =
    if Buffer.length buf > max_request then Error 413
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> if Buffer.length buf = 0 then Error 400 else Ok (Buffer.contents buf)
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          if terminated (Buffer.contents buf) then Ok (Buffer.contents buf)
          else go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error 400 (* timed out mid-request *)
  in
  go ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let handle_connection handlers fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
   with Unix.Unix_error _ -> ());
  let response =
    match read_request fd with
    | Ok request -> handle_request handlers request
    | Error status -> (status, "text/plain", status_text status ^ "\n")
  in
  Ppdm_obs.Metrics.incr "server.admin.requests";
  match write_all fd (response_bytes response) with
  | () -> ()
  | exception Unix.Unix_error _ -> () (* scraper went away; fine *)

let serve_loop listener ~stop handlers =
  let rec go () =
    if Atomic.get stop then ()
    else
      match Unix.select [ listener ] [] [] 0.05 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.accept listener with
          | fd, _ ->
              Fun.protect
                ~finally:(fun () -> close_quietly fd)
                (fun () -> handle_connection handlers fd);
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  Fun.protect ~finally:(fun () -> close_quietly listener) go

(* ------------------------------------------------------------- client *)

(* Minimal HTTP/1.0 GET, for [ppdm top]/[ppdm stat], tests, and fault
   scenarios: one request, read to EOF, split status and body. *)
let fetch ~port path =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | raw -> (
      let body_of raw =
        let rec find i =
          if i + 1 >= String.length raw then String.length raw
          else if raw.[i] = '\n' && raw.[i + 1] = '\n' then i + 2
          else if
            i + 3 < String.length raw
            && String.sub raw i 4 = "\r\n\r\n"
          then i + 4
          else find (i + 1)
        in
        let b = find 0 in
        String.sub raw b (String.length raw - b)
      in
      match String.split_on_char ' ' raw with
      | _http :: code :: _ when String.length code = 3 -> (
          match int_of_string_opt code with
          | Some status -> Ok (status, body_of raw)
          | None -> Error "malformed status line")
      | _ -> Error "malformed status line")
