type read_error =
  | Closed
  | Truncated of { expected : int; got : int }
  | Bad_length of int
  | Too_large of { declared : int; limit : int }

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated { expected; got } ->
      Printf.sprintf "truncated frame: %d of %d byte(s)" got expected
  | Bad_length n -> Printf.sprintf "bad frame length %d" n
  | Too_large { declared; limit } ->
      Printf.sprintf "frame length %d exceeds cap %d" declared limit

let default_max_frame = 1 lsl 20

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let write ?(max_frame = default_max_frame) fd payload =
  let len = Bytes.length payload in
  if len = 0 then invalid_arg "Framing.write: empty payload";
  (* Mirror the read-side cap: a frame above the peer's [max_frame] is
     guaranteed to be rejected there, so refusing to emit it turns a
     remote protocol error into a local, diagnosable one. *)
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Framing.write: payload length %d exceeds cap %d" len
         max_frame);
  (* Header and payload in one write: two writes per frame leave a small
     segment for Nagle to hold until the peer's delayed ACK. *)
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit payload 0 frame 4 len;
  write_all fd frame 0 (4 + len)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** next unread byte of [buf] *)
  mutable lim : int;  (** end of the bytes read into [buf] *)
}

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; lim = 0 }

(* Refill [buf] after its unread bytes until [need] of them are there or
   the peer closes; the number then unread.  [Unix.read] returning 0 is
   the EOF signal on sockets. *)
let fill r need =
  if r.pos = r.lim then begin
    r.pos <- 0;
    r.lim <- 0
  end
  else if r.pos + need > Bytes.length r.buf then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.lim - r.pos);
    r.lim <- r.lim - r.pos;
    r.pos <- 0
  end;
  let rec go () =
    if r.lim - r.pos >= need then need
    else
      match Unix.read r.fd r.buf r.lim (Bytes.length r.buf - r.lim) with
      | 0 -> r.lim - r.pos
      | n ->
          r.lim <- r.lim + n;
          go ()
  in
  go ()

(* The payload's bytes, each refill of [buf] blitted into it. *)
let read_payload r payload =
  let declared = Bytes.length payload in
  let rec go got =
    if got = declared then Ok payload
    else if r.lim > r.pos then begin
      let n = min (r.lim - r.pos) (declared - got) in
      Bytes.blit r.buf r.pos payload got n;
      r.pos <- r.pos + n;
      go (got + n)
    end
    else
      match fill r 1 with
      | 0 -> Error (Truncated { expected = declared; got })
      | _ -> go got
  in
  go 0

let read ?(max_frame = default_max_frame) r =
  match fill r 4 with
  | 0 -> Error Closed
  | got when got < 4 -> Error (Truncated { expected = 4; got })
  | _ ->
      let declared = Int32.to_int (Bytes.get_int32_be r.buf r.pos) in
      r.pos <- r.pos + 4;
      if declared <= 0 then Error (Bad_length declared)
      else if declared > max_frame then
        Error (Too_large { declared; limit = max_frame })
      else read_payload r (Bytes.create declared)
