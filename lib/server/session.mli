(** Server side of one client connection: the protocol state machine.

    A session must open with [Hello]; the server checks the protocol
    version, that every declared report size lies in [[0, universe]], and
    — when the client declares report sizes — that the
    client's operator parameters match its own scheme at exactly those
    sizes ({!Ppdm.Randomizer.same_parameters} over the in-band
    {!Ppdm.Scheme_io} text), replying [Welcome] with the universe and the
    tracked itemsets.  Reports are then validated (items inside the
    handshaked universe, size among the handshaked sizes) and routed
    round-robin into the shards; a bad report earns a typed [Error]
    response and the session continues — a malformed frame, oversized
    length, or protocol violation earns a typed [Error] and the session
    ends.  [Snapshot_request] answers with the server's live estimate
    JSON; [Shutdown] asks the server to stop and answers [Bye]. *)

open Ppdm_data
open Ppdm

type config = {
  scheme : Randomizer.t;
  universe : int;
  itemsets : Itemset.t list;
  max_frame : int;
  verify_scheme : Randomizer.t -> sizes:int list -> bool;
      (** [same_parameters] against the server scheme, serialized by the
          server's scheme lock (scheme resolution mutates a cache). *)
  snapshot : flush:bool -> string;  (** live estimate JSON *)
  request_shutdown : unit -> unit;
}

val run : config -> shards:Shard.t array -> Unix.file_descr -> unit
(** Serve the connection until the peer disconnects, a fatal protocol
    error occurs, or the client sends [Shutdown].  Never raises on
    protocol or socket trouble (the error is answered when the socket
    still works, and always counted in metrics); the descriptor is NOT
    closed (the caller owns it). *)
