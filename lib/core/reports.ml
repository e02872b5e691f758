open Ppdm_data
open Ppdm_mining

(* The rows of one chunk in input order: row [j] has original size
   [tags.(j)], and its report is the next [lens.(j)] entries of [items],
   ascending.  [counts.(item)] counts the item's rows in the chunk. *)
type chunk = {
  mutable items : int array;
  mutable counts : int array;
  tags : int array;
  lens : int array;
}
type t = { universe : int; chunk_rows : int; chunks : chunk array }

type frozen = {
  vt : Vertical.t;
  sizes : int array;
  rows : int array;
  bounds : int array;
}

let create ~universe ~rows ~chunk =
  if chunk <= 0 then invalid_arg "Reports.create: chunk must be positive";
  let chunks =
    Array.init ((rows + chunk - 1) / chunk) (fun i ->
        let len = min chunk (rows - (i * chunk)) in
        {
          items = [||];
          counts = [||];
          tags = Array.make len 0;
          lens = Array.make len 0;
        })
  in
  { universe; chunk_rows = chunk; chunks }

let length t =
  Array.fold_left (fun acc c -> acc + Array.length c.lens) 0 t.chunks

(* Chunk [i] holds rows [i * chunk_rows ..]; a row's slice starts where
   the lengths before it in its chunk end. *)
let iter_rows ?(lo = 0) ?hi t row =
  let n = length t in
  let hi = Option.value hi ~default:n in
  if lo < 0 || hi > n || lo > hi then
    invalid_arg "Reports.iter_rows: row range outside the store";
  if lo < hi then
    for i = lo / t.chunk_rows to (hi - 1) / t.chunk_rows do
      let c = t.chunks.(i) and base = i * t.chunk_rows in
      let off = ref 0 in
      for j = 0 to min (Array.length c.lens) (hi - base) - 1 do
        if base + j >= lo then row c.tags.(j) c.items !off c.lens.(j);
        off := !off + c.lens.(j)
      done
    done

let count_items ~universe items =
  let counts = Array.make universe 0 in
  Array.iter (fun item -> counts.(item) <- counts.(item) + 1) items;
  counts

(* A chunk's reports are written into the running domain's scratch buffer,
   which keeps a universe of free slots ahead of the next report (what
   [apply_into] asks), and leave it as one exact copy: every word the
   store allocates is one it keeps.  The items are counted while the
   buffer is still in cache, so the freeze need not read them twice. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let randomize_chunk t i scheme rng txs =
  let c = t.chunks.(i) and base = i * t.chunk_rows and u = t.universe in
  let buf = Domain.DLS.get scratch_key and off = ref 0 in
  for j = 0 to Array.length c.lens - 1 do
    if Array.length !buf - !off < u then begin
      let grown = Array.make ((2 * Array.length !buf) + u) 0 in
      Array.blit !buf 0 grown 0 !off;
      buf := grown
    end;
    let tx = txs.(base + j) in
    let len = Randomizer.apply_into scheme rng tx !buf ~off:!off in
    c.tags.(j) <- Itemset.cardinal tx;
    c.lens.(j) <- len;
    off := !off + len
  done;
  c.items <- Array.sub !buf 0 !off;
  c.counts <- count_items ~universe:u c.items

let of_tagged ~universe data =
  let rows = Array.length data in
  let t = create ~universe ~rows ~chunk:(max rows 1) in
  Array.iter
    (fun c ->
      let total =
        Array.fold_left (fun acc (_, y) -> acc + Itemset.cardinal y) 0 data
      in
      let items = Array.make total 0 and off = ref 0 in
      Array.iteri
        (fun j (size, y) ->
          let y = Itemset.unsafe_to_array y in
          let len = Array.length y in
          if size < 0 || size > universe || (len > 0 && y.(len - 1) >= universe)
          then
            invalid_arg "Reports.of_tagged: size or item outside the universe";
          c.tags.(j) <- size;
          c.lens.(j) <- len;
          Array.blit y 0 items !off len;
          off := !off + len)
        data;
      c.items <- items;
      c.counts <- count_items ~universe items)
    t.chunks;
  t

(* Class [c] (the [c]-th smallest original size) owns the word window
   [bounds.(c), bounds.(c + 1)), and its rows take the tids from
   [62 * bounds.(c)] in input order; the rest of the window is empty
   padding.  Those are the tids the rows had in the regrouped, padded
   database the miner used to transpose.  A sparse item's tids arrive in
   input order, ascending within each class, so a stable sort by class
   leaves them ascending, and every payload comes out as [Vertical.of_db]
   built it. *)
let freeze t =
  let largest =
    Array.fold_left (fun acc c -> Array.fold_left max acc c.tags) 0 t.chunks
  in
  let hist = Array.make (largest + 1) 0 in
  Array.iter
    (fun c -> Array.iter (fun s -> hist.(s) <- hist.(s) + 1) c.tags)
    t.chunks;
  let sizes =
    Array.of_list
      (List.filter (fun s -> hist.(s) > 0) (List.init (largest + 1) Fun.id))
  in
  let rows = Array.map (fun s -> hist.(s)) sizes in
  let class_of = hist (* from here on: size -> class *) in
  Array.iteri (fun c s -> class_of.(s) <- c) sizes;
  let classes = Array.length sizes and u = t.universe in
  let bits = Bitset.bits_per_word in
  let bounds = Array.make (classes + 1) 0 in
  Array.iteri
    (fun c r -> bounds.(c + 1) <- bounds.(c) + Bitset.words_for r)
    rows;
  let n = bits * bounds.(classes) in
  let counts = Array.make u 0 in
  Array.iter
    (fun ch ->
      Array.iteri (fun item k -> counts.(item) <- counts.(item) + k) ch.counts)
    t.chunks;
  let b = Bitset.builder ~n counts in
  let next_tid = Array.map (fun w -> bits * w) bounds in
  Array.iter
    (fun ch ->
      let off = ref 0 in
      for j = 0 to Array.length ch.lens - 1 do
        let len = ch.lens.(j) and c = class_of.(ch.tags.(j)) in
        let tid = next_tid.(c) in
        next_tid.(c) <- tid + 1;
        Bitset.fill_row b ~tid ch.items ~off:!off ~len;
        off := !off + len
      done)
    t.chunks;
  let payloads = Bitset.finish b in
  (* the stable counting sort by class; a tid's word names its class *)
  let sparse item = not (Bitset.dense_for ~n counts.(item)) in
  let class_of_word = Array.make bounds.(classes) 0 in
  for c = 0 to classes - 1 do
    Array.fill class_of_word bounds.(c) (bounds.(c + 1) - bounds.(c)) c
  done;
  let start = Array.make (classes + 1) 0 in
  let longest = ref 0 in
  Array.iteri (fun item k -> if sparse item then longest := max !longest k) counts;
  let sorted = Array.make !longest 0 in
  Array.iteri
    (fun item tids ->
      if sparse item then begin
        Array.fill start 0 (classes + 1) 0;
        Array.iter
          (fun tid ->
            let c = class_of_word.(tid / bits) + 1 in
            start.(c) <- start.(c) + 1)
          tids;
        for c = 1 to classes do
          start.(c) <- start.(c) + start.(c - 1)
        done;
        Array.iter
          (fun tid ->
            let c = class_of_word.(tid / bits) in
            sorted.(start.(c)) <- tid;
            start.(c) <- start.(c) + 1)
          tids;
        Array.blit sorted 0 tids 0 (Array.length tids)
      end)
    payloads;
  { vt = Vertical.of_payloads ~n ~counts payloads; sizes; rows; bounds }
