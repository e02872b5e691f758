(** Length-prefixed binary framing over a file descriptor.

    A frame is a 4-byte big-endian payload length followed by that many
    payload bytes (the payload being one {!Wire} message).  The reader is
    strict: a declared length of zero, a negative length (a garbage
    prefix with the high bit set), or a length beyond the configured cap
    is a typed error — never an attempt to allocate or read the declared
    amount — and end-of-stream inside a frame is distinguished from a
    clean close at a frame boundary, so a truncated frame can be rejected
    rather than silently dropped.

    Each frame costs one [write] to send: header and payload leave in one
    buffer, so no small segment waits on Nagle and the peer's delayed ACK.
    Frames are received through a {!reader}, a 64 KB buffer that one
    [read] fills with as many frames as have arrived; a larger payload is
    copied out of it one refill at a time. *)

type read_error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated of { expected : int; got : int }
      (** the peer closed mid-frame: [got] of [expected] bytes arrived *)
  | Bad_length of int  (** declared payload length is zero or negative *)
  | Too_large of { declared : int; limit : int }
      (** declared payload length exceeds the cap; no payload was
          allocated, and the stream is unusable afterwards *)

val read_error_to_string : read_error -> string

val default_max_frame : int
(** Default payload cap: 1 MiB.  Big enough for any handshake or
    snapshot; small enough that a malicious length cannot balloon
    memory. *)

val write : ?max_frame:int -> Unix.file_descr -> Bytes.t -> unit
(** Write one frame, header and payload in one buffer with one [write]
    (looping only over partial writes).
    [max_frame] (default {!default_max_frame}) mirrors the read-side
    cap: a frame above the peer's limit is guaranteed to be rejected
    there, so emitting one is refused locally instead.
    @raise Invalid_argument if the payload is empty or longer than
    [max_frame] bytes.
    @raise Unix.Unix_error as the descriptor does (e.g. [EPIPE]). *)

type reader
(** A buffered frame reader over one descriptor.  It owns the bytes it
    has read past the last frame returned, so every read of the
    descriptor must go through it. *)

val reader : Unix.file_descr -> reader
(** A reader with a 64 KB buffer. *)

val read : ?max_frame:int -> reader -> (Bytes.t, read_error) result
(** Read one frame payload.  The header is checked before any payload is
    allocated, so nothing above [max_frame] (default
    {!default_max_frame}) ever is.
    @raise Unix.Unix_error on descriptor errors other than EOF. *)
