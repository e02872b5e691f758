(* PPDMC: the on-disk columnar transaction format.

   Layout (all integers little-endian):

     offset 0   6 bytes   magic "PPDMC\x00"
            6   u16       format version (2)
            8   u64       universe
           16   u64       transactions (n)
           24   u64       payload bytes
           32   directory: universe entries of (u64 card, u64 offset,
                           u64 length) — offsets relative to the payload
                           area, so the directory alone locates any
                           item's payload with one seek
     32 + 24u   payload:  per item, its tid-set in the shape the vertical
                           engine counts on, chosen by [Bitset.dense_for
                           ~n card]:
                             dense  — [Bitset.words_for n] 62-bit words
                                      as i64, tail bits above n zero
                             sparse — [card] ascending tids as u32

   A payload is the loaded tid-set itself, so a load is one read and one
   validation pass per item, with no decoding into a second layout.  The
   reader uses plain channel seeks into one reused buffer: a load streams
   the file without ever holding more than one item's bytes in flight.
   Every value is validated; violations raise the typed {!Error}, never a
   partial tid-set. *)

let magic = "PPDMC\x00"
let version = 2
let header_bytes = 32
let dir_entry_bytes = 24

(* A sparse tid is a u32, so no file covers more transactions than that;
   a corrupt header must fail with a typed error before anything it
   implies is allocated. *)
let max_transactions = 1 lsl 32

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of string
  | Corrupt of string

exception Error of error

let error_message = function
  | Bad_magic -> "not a PPDMC columnar file (bad magic)"
  | Unsupported_version v -> Printf.sprintf "unsupported PPDMC version %d" v
  | Truncated what -> Printf.sprintf "truncated PPDMC file (%s)" what
  | Corrupt what -> Printf.sprintf "corrupt PPDMC file (%s)" what

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Colfile.Error: " ^ error_message e)
    | _ -> None)

let fail e = raise (Error e)

(* The payload bytes an item of [card] tids takes, and whether it is
   dense: the file stores exactly what [Vertical.of_db] would build. *)
let payload_shape ~n card =
  if Bitset.dense_for ~n card then (true, 8 * Bitset.words_for n)
  else (false, 4 * card)

(* --- writing --------------------------------------------------------- *)

let add_u16 buf v = Buffer.add_uint16_le buf v
let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* Header, directory, then each payload through one reused buffer: the
   payloads are already in their loaded shape ([counts.(i)] tids, dense
   or sparse by [payload_shape]).  Returns the payload bytes. *)
let write_payloads path ~n ~counts payloads =
  let universe = Array.length counts in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let shapes = Array.map (payload_shape ~n) counts in
      let lens = Array.map snd shapes in
      let payload_bytes = Array.fold_left ( + ) 0 lens in
      let header =
        Buffer.create (header_bytes + (dir_entry_bytes * universe))
      in
      Buffer.add_string header magic;
      add_u16 header version;
      add_u64 header universe;
      add_u64 header n;
      add_u64 header payload_bytes;
      let off = ref 0 in
      Array.iteri
        (fun i len ->
          add_u64 header counts.(i);
          add_u64 header !off;
          add_u64 header len;
          off := !off + len)
        lens;
      Buffer.output_buffer oc header;
      let buf = Bytes.create (Array.fold_left max 0 lens) in
      Array.iteri
        (fun i p ->
          if fst shapes.(i) then
            Array.iteri
              (fun j w -> Bytes.set_int64_le buf (8 * j) (Int64.of_int w))
              p
          else
            Array.iteri
              (fun j tid -> Bytes.set_int32_le buf (4 * j) (Int32.of_int tid))
              p;
          output oc buf 0 lens.(i))
        payloads;
      payload_bytes)

let write path ~n tids =
  let universe = Array.length tids in
  if universe = 0 then invalid_arg "Colfile.write: empty universe";
  if n < 0 || n > max_transactions then
    invalid_arg "Colfile.write: transaction count out of range";
  let counts = Array.map Array.length tids in
  let payloads =
    Array.map
      (fun ts ->
        Array.iteri
          (fun i tid ->
            if tid < 0 || tid >= n || (i > 0 && ts.(i - 1) >= tid) then
              invalid_arg "Colfile.write: tids not ascending in [0, n)")
          ts;
        if fst (payload_shape ~n (Array.length ts)) then begin
          let words = Array.make (Bitset.words_for n) 0 in
          Array.iter
            (fun tid ->
              let w = tid / Bitset.bits_per_word in
              words.(w) <- words.(w) lor (1 lsl (tid mod Bitset.bits_per_word)))
            ts;
          words
        end
        else ts)
      tids
  in
  ignore (write_payloads path ~n ~counts payloads)

(* --- reading --------------------------------------------------------- *)

type t = {
  ic : in_channel;
  universe : int;
  n : int;
  payload_pos : int;
  cards : int array;
  offs : int array;
  lens : int array;
  mutable buf : Bytes.t; (* reused by every [payload] read *)
  mutable closed : bool;
}

let universe t = t.universe
let length t = t.n

let item_count t item =
  if item < 0 || item >= t.universe then
    invalid_arg "Colfile.item_count: item out of range";
  t.cards.(item)

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_in_noerr t.ic
  end

let really_read ic b len ~what =
  try really_input ic b 0 len with End_of_file -> fail (Truncated what)

let get_u64 b pos ~what =
  let v = Bytes.get_int64_le b pos in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    fail (Corrupt (what ^ " out of range"));
  Int64.to_int v

let open_file path =
  let ic = open_in_bin path in
  match
    let total = in_channel_length ic in
    if total < header_bytes then fail (Truncated "header");
    let header = Bytes.create header_bytes in
    really_read ic header header_bytes ~what:"header";
    if Bytes.sub_string header 0 6 <> magic then fail Bad_magic;
    let v = Bytes.get_uint16_le header 6 in
    if v <> version then fail (Unsupported_version v);
    let universe = get_u64 header 8 ~what:"universe" in
    if universe < 1 then fail (Corrupt "universe must be positive");
    let n = get_u64 header 16 ~what:"transaction count" in
    if n > max_transactions then fail (Corrupt "transaction count out of range");
    let payload_bytes = get_u64 header 24 ~what:"payload size" in
    (* divided, not multiplied: a corrupt universe must not overflow *)
    if universe > (total - header_bytes) / dir_entry_bytes then
      fail (Truncated "directory");
    let dir = Bytes.create (dir_entry_bytes * universe) in
    really_read ic dir (dir_entry_bytes * universe) ~what:"directory";
    let payload_pos = header_bytes + (dir_entry_bytes * universe) in
    if total < payload_pos + payload_bytes then fail (Truncated "payload");
    if total > payload_pos + payload_bytes then
      fail (Corrupt "trailing bytes after the payload");
    let cards = Array.make universe 0 in
    let offs = Array.make universe 0 in
    let lens = Array.make universe 0 in
    for item = 0 to universe - 1 do
      let base = item * dir_entry_bytes in
      let card = get_u64 dir base ~what:"directory cardinality" in
      let off = get_u64 dir (base + 8) ~what:"directory offset" in
      let len = get_u64 dir (base + 16) ~what:"directory length" in
      if card > n then fail (Corrupt "directory cardinality above n");
      if off + len > payload_bytes then
        fail (Corrupt "directory slice outside the payload");
      cards.(item) <- card;
      offs.(item) <- off;
      lens.(item) <- len
    done;
    {
      ic;
      universe;
      n;
      payload_pos;
      cards;
      offs;
      lens;
      buf = Bytes.empty;
      closed = false;
    }
  with
  | t -> t
  | exception e ->
      close_in_noerr ic;
      raise e

let max_word = (1 lsl Bitset.bits_per_word) - 1

let payload t item =
  if t.closed then invalid_arg "Colfile.payload: file closed";
  if item < 0 || item >= t.universe then
    invalid_arg "Colfile.payload: item out of range";
  let card = t.cards.(item) and len = t.lens.(item) and n = t.n in
  let dense, expect = payload_shape ~n card in
  if len <> expect then
    fail (Corrupt "payload length disagrees with the directory cardinality");
  if Bytes.length t.buf < len then t.buf <- Bytes.create len;
  let b = t.buf in
  seek_in t.ic (t.payload_pos + t.offs.(item));
  really_read t.ic b len ~what:"payload";
  if dense then begin
    let words = Array.make (len / 8) 0 in
    let card' = ref 0 in
    for j = 0 to Array.length words - 1 do
      let v = Bytes.get_int64_le b (8 * j) in
      if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_word) > 0
      then fail (Corrupt "dense word out of range");
      let w = Int64.to_int v in
      words.(j) <- w;
      card' := !card' + Bitset.popcount w
    done;
    let last = Array.length words - 1 in
    if words.(last) land lnot (Bitset.last_word_mask ~width:n) <> 0 then
      fail (Corrupt "dense word sets a bit past the last transaction");
    if !card' <> card then
      fail (Corrupt "directory cardinality disagrees with the payload");
    words
  end
  else begin
    let tids = Array.make card 0 in
    let prev = ref (-1) in
    for j = 0 to card - 1 do
      let tid = Int32.to_int (Bytes.get_int32_le b (4 * j)) land 0xFFFF_FFFF in
      if tid <= !prev then fail (Corrupt "sparse tids not strictly increasing");
      if tid >= n then fail (Corrupt "sparse tid out of range");
      tids.(j) <- tid;
      prev := tid
    done;
    tids
  end

(* --- streaming conversion ------------------------------------------- *)

type convert_stats = {
  cv_universe : int;
  cv_transactions : int;
  cv_payload_bytes : int;
}

(* Two streaming passes through [Io.fold_transactions]: the first counts
   each item's tids, which fixes every payload's shape and exact size;
   the second feeds the rows to a [Bitset.builder], which rejects rows
   the first pass did not count.  The source database is never resident
   — the working set is the output's payloads. *)
let convert ?universe ~src ~dst () =
  (match universe with
  | Some u when u < 1 -> invalid_arg "Colfile.convert: universe must be positive"
  | _ -> ());
  Ppdm_obs.Span.with_ ~name:"columnar.convert" @@ fun () ->
  let counts = ref [||] in
  let count () tx =
    Array.iter
      (fun item ->
        let c = !counts in
        if item >= Array.length c then begin
          counts := Array.make (max (item + 1) (2 * Array.length c)) 0;
          Array.blit c 0 !counts 0 (Array.length c)
        end;
        !counts.(item) <- !counts.(item) + 1)
      (Itemset.unsafe_to_array tx)
  in
  let (), info = Io.fold_transactions ?universe src ~init:() ~f:count in
  let n = info.Io.transactions and universe = info.Io.universe in
  if n > max_transactions then failwith "more transactions than PPDMC holds";
  let counts =
    Array.init universe (fun i ->
        if i < Array.length !counts then !counts.(i) else 0)
  in
  let changed () =
    failwith
      "the source changed between convert's two passes (it must be a file, \
       not a pipe)"
  in
  let b = Bitset.builder ~n counts in
  let fill tid tx =
    let items = Itemset.unsafe_to_array tx in
    (try Bitset.fill_row b ~tid items ~off:0 ~len:(Array.length items)
     with Invalid_argument _ -> changed ());
    tid + 1
  in
  let seen, _ = Io.fold_transactions ~universe src ~init:0 ~f:fill in
  if seen <> n then changed ();
  let payloads = try Bitset.finish b with Invalid_argument _ -> changed () in
  let payload_bytes = write_payloads dst ~n ~counts payloads in
  if Ppdm_obs.Metrics.enabled () then
    Ppdm_obs.Metrics.add "columnar.bytes" payload_bytes;
  {
    cv_universe = universe;
    cv_transactions = n;
    cv_payload_bytes = payload_bytes;
  }
