(* Roaring-style compressed tid-set containers.

   A column is the tid-set of one item over [n] transactions, cut into
   fixed-width blocks of [block_words] 62-bit words (3968 tids).  Each
   block independently picks the cheapest of three physical containers —
   dense bitmap, packed sorted offsets, run-length intervals — by its
   serialized size, so the randomization-induced dense regions compress
   as runs while genuinely sparse tails stay as 2-byte offsets.  This is
   the on-disk form only: loaders decode a column back to tids or to a
   packed bitmap ([to_tids], [write_into]) and count on those. *)

let bpw = Bitset.bits_per_word
let block_words = 64
let block_bits = block_words * bpw

(* Quotient by [bpw] for block-relative bit positions.  ocamlopt does not
   strength-reduce division by non-power-of-two constants, and decoding
   divides on every offset; [(off * 16913) lsr 20] equals
   [off / 62] for every off in [0, block_bits] (checked below), at about
   60% of the hardware-divide latency. *)
let div62 off = (off * 16913) lsr 20

let () =
  assert (bpw = 62);
  for off = 0 to block_bits do
    assert (div62 off = off / bpw)
  done

(* Offsets are block-relative bit positions (< block_bits = 3968, so they
   fit u16) packed four per OCaml int, lowest 16 bits first.  Runs are
   half-open [start, stop) intervals packed as [(start lsl 16) lor stop],
   strictly ascending, non-overlapping and non-adjacent. *)
type block =
  | Empty
  | Dense of int array
  | Sparse of int * int array
  | Runs of int array

type t = { n : int; card : int; blocks : block array }

let length t = t.n
let cardinal t = t.card
let word_count t = Bitset.words_for t.n
let blocks t = t.blocks

let sparse_get packed i = (packed.(i lsr 2) lsr ((i land 3) lsl 4)) land 0xFFFF
let run_start v = v lsr 16
let run_stop v = v land 0xFFFF

let make_run ~start ~stop =
  if start < 0 || stop <= start || stop > block_bits then
    invalid_arg "Column.make_run: bad interval";
  (start lsl 16) lor stop

let pack_offsets offs =
  let card = Array.length offs in
  let packed = Array.make ((card + 3) / 4) 0 in
  for i = 0 to card - 1 do
    packed.(i lsr 2) <- packed.(i lsr 2) lor (offs.(i) lsl ((i land 3) lsl 4))
  done;
  packed

(* First index in the packed offsets with an offset >= bound.  The
   bound-0 / bound-past-the-block cases are the common full-window calls
   and skip the search entirely (offsets always lie in [0, block_bits)). *)
let sparse_lower packed card bound =
  if bound <= 0 then 0
  else if bound >= block_bits then card
  else begin
    let lo = ref 0 and hi = ref card in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sparse_get packed mid < bound then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* First run whose stop is > bound (the first that can intersect
   [bound, ...)). *)
let runs_lower rs bound =
  if bound <= 0 then 0
  else begin
    let lo = ref 0 and hi = ref (Array.length rs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if run_stop rs.(mid) <= bound then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let full_word = Bitset.last_word_mask ~width:bpw

(* Mask of bits [lo, hi) within one word, 0 <= lo < hi <= bpw. *)
let word_mask ~lo ~hi =
  if hi - lo = bpw then full_word else ((1 lsl (hi - lo)) - 1) lsl lo

(* --- representation choice ----------------------------------------- *)

let count_runs_of_offsets offs =
  let nruns = ref 0 in
  Array.iteri
    (fun i off -> if i = 0 || off <> offs.(i - 1) + 1 then incr nruns)
    offs;
  !nruns

let runs_of_offsets offs nruns =
  let rs = Array.make nruns 0 in
  let k = ref (-1) in
  Array.iteri
    (fun i off ->
      if i = 0 || off <> offs.(i - 1) + 1 then begin
        incr k;
        rs.(!k) <- make_run ~start:off ~stop:(off + 1)
      end
      else rs.(!k) <- (rs.(!k) land lnot 0xFFFF) lor (off + 1))
    offs;
  rs

(* Deterministic container choice by serialized size: dense costs 8 bytes
   per word, sorted offsets 2 bytes each, runs 4 bytes each.  Ties prefer
   offsets over runs over dense, so the choice is a pure function of the
   block's contents. *)
let encode_offsets ~wib offs =
  let card = Array.length offs in
  if card = 0 then Empty
  else begin
    let nruns = count_runs_of_offsets offs in
    let dense_cost = 8 * wib in
    let sparse_cost = 2 * card in
    let run_cost = 4 * nruns in
    if sparse_cost <= run_cost && sparse_cost <= dense_cost then
      Sparse (card, pack_offsets offs)
    else if run_cost < dense_cost then Runs (runs_of_offsets offs nruns)
    else begin
      let words = Array.make wib 0 in
      Array.iter
        (fun off ->
          let w = div62 off in
          words.(w) <- words.(w) lor (1 lsl (off - (w * bpw))))
        offs;
      Dense words
    end
  end

let block_of_offsets ~wib offs = encode_offsets ~wib offs

(* --- construction --------------------------------------------------- *)

let n_blocks_for n =
  let n_words = Bitset.words_for n in
  (n_words + block_words - 1) / block_words

(* Words the block [b] of an [n]-transaction column spans (the last block
   may be short). *)
let words_in_block ~n b =
  min block_words (Bitset.words_for n - (b * block_words))

let of_tids ~n tids =
  if n < 0 then invalid_arg "Column.of_tids: negative n";
  Array.iteri
    (fun i tid ->
      if tid < 0 || tid >= n then invalid_arg "Column.of_tids: tid out of range";
      if i > 0 && tids.(i - 1) >= tid then
        invalid_arg "Column.of_tids: tids not strictly increasing")
    tids;
  let blocks = Array.make (n_blocks_for n) Empty in
  let len = Array.length tids in
  let i = ref 0 in
  while !i < len do
    let b = tids.(!i) / block_bits in
    let stop = (b + 1) * block_bits in
    let j = ref !i in
    while !j < len && tids.(!j) < stop do
      incr j
    done;
    let base = b * block_bits in
    let offs = Array.init (!j - !i) (fun k -> tids.(!i + k) - base) in
    blocks.(b) <- encode_offsets ~wib:(words_in_block ~n b) offs;
    i := !j
  done;
  { n; card = len; blocks }

let of_words ~n words =
  if n < 0 then invalid_arg "Column.of_words: negative n";
  if Array.length words <> Bitset.words_for n then
    invalid_arg "Column.of_words: word count mismatch";
  let blocks =
    Array.init (n_blocks_for n) (fun b ->
        let wib = words_in_block ~n b in
        let offs = ref [] in
        for w = wib - 1 downto 0 do
          let base = w * bpw in
          for bit = bpw - 1 downto 0 do
            if words.((b * block_words) + w) lsr bit land 1 = 1 then
              offs := (base + bit) :: !offs
          done
        done;
        encode_offsets ~wib (Array.of_list !offs))
  in
  let card =
    Array.fold_left (fun acc w -> acc + Bitset.popcount w) 0 words
  in
  (* Tail bits above [n] must already be zero (the packed invariant). *)
  (if Array.length words > 0 then
     let last = Array.length words - 1 in
     if words.(last) land lnot (Bitset.last_word_mask ~width:n) <> 0 then
       invalid_arg "Column.of_words: set bits above n");
  { n; card; blocks }

(* Validating constructor for the on-disk decoder: checks every container
   invariant (ascending offsets, disjoint ascending non-adjacent runs,
   in-range values, zero tail bits) and recomputes the cardinality.
   @raise Invalid_argument on any violation. *)
let of_blocks ~n blocks =
  if n < 0 then invalid_arg "Column.of_blocks: negative n";
  if Array.length blocks <> n_blocks_for n then
    invalid_arg "Column.of_blocks: block count mismatch";
  let card = ref 0 in
  Array.iteri
    (fun b block ->
      let wib = words_in_block ~n b in
      let bits = min block_bits (n - (b * block_bits)) in
      match block with
      | Empty -> ()
      | Dense words ->
          if Array.length words <> wib then
            invalid_arg "Column.of_blocks: dense word count mismatch";
          Array.iteri
            (fun w v ->
              if v < 0 || v > full_word then
                invalid_arg "Column.of_blocks: dense word out of range";
              let valid =
                if w = wib - 1 then Bitset.last_word_mask ~width:bits
                else full_word
              in
              if v land lnot valid <> 0 then
                invalid_arg "Column.of_blocks: dense bits above n";
              card := !card + Bitset.popcount v)
            words
      | Sparse (c, packed) ->
          if c <= 0 || Array.length packed <> (c + 3) / 4 then
            invalid_arg "Column.of_blocks: sparse length mismatch";
          (* bits beyond the last offset in the final packed word must be
             zero so packed equality is content equality *)
          if c land 3 <> 0 && packed.(Array.length packed - 1) lsr ((c land 3) * 16) <> 0
          then invalid_arg "Column.of_blocks: sparse padding not zero";
          for i = 0 to c - 1 do
            let off = sparse_get packed i in
            if off >= bits then
              invalid_arg "Column.of_blocks: sparse offset out of range";
            if i > 0 && sparse_get packed (i - 1) >= off then
              invalid_arg "Column.of_blocks: sparse offsets not increasing"
          done;
          card := !card + c
      | Runs rs ->
          if Array.length rs = 0 then
            invalid_arg "Column.of_blocks: empty run container";
          Array.iteri
            (fun i v ->
              let s = run_start v and e = run_stop v in
              if s >= e || e > bits then
                invalid_arg "Column.of_blocks: run out of range";
              if i > 0 && run_stop rs.(i - 1) >= s then
                invalid_arg "Column.of_blocks: runs not disjoint ascending";
              card := !card + (e - s))
            rs)
    blocks;
  { n; card = !card; blocks }

(* --- inspection ----------------------------------------------------- *)

type rep = R_empty | R_dense | R_sparse | R_run

let rep t b =
  match t.blocks.(b) with
  | Empty -> R_empty
  | Dense _ -> R_dense
  | Sparse _ -> R_sparse
  | Runs _ -> R_run

let mem (t : t) tid =
  if tid < 0 || tid >= t.n then invalid_arg "Column.mem: tid out of range";
  let b = tid / block_bits in
  let off = tid - (b * block_bits) in
  match t.blocks.(b) with
  | Empty -> false
  | Dense ws ->
      let w = div62 off in
      ws.(w) lsr (off - (w * bpw)) land 1 = 1
  | Sparse (card, packed) ->
      let i = sparse_lower packed card off in
      i < card && sparse_get packed i = off
  | Runs rs ->
      let i = runs_lower rs off in
      i < Array.length rs && run_start rs.(i) <= off

let iter_tids f (t : t) =
  Array.iteri
    (fun b block ->
      let base = b * block_bits in
      match block with
      | Empty -> ()
      | Dense ws ->
          Array.iteri
            (fun w v ->
              let v = ref v in
              let wbase = base + (w * bpw) in
              while !v <> 0 do
                let bit = !v land (- !v) in
                f (wbase + Bitset.popcount (bit - 1));
                v := !v land (!v - 1)
              done)
            ws
      | Sparse (card, packed) ->
          for i = 0 to card - 1 do
            f (base + sparse_get packed i)
          done
      | Runs rs ->
          Array.iter
            (fun r ->
              for off = run_start r to run_stop r - 1 do
                f (base + off)
              done)
            rs)
    t.blocks

let to_tids t =
  let out = Array.make t.card 0 in
  let k = ref 0 in
  iter_tids
    (fun tid ->
      out.(!k) <- tid;
      incr k)
    t;
  out

let equal (a : t) (b : t) =
  a.n = b.n && a.card = b.card && a.blocks = b.blocks

(* --- window expansion ----------------------------------------------- *)

(* Walk the blocks intersecting the word window [wlo, whi), handing each
   its block-relative word sub-range [lo, hi). *)
let iter_blocks ~wlo ~whi f =
  if whi > wlo then begin
    let b0 = wlo / block_words and b1 = (whi - 1) / block_words in
    for b = b0 to b1 do
      let base = b * block_words in
      let lo = max wlo base - base and hi = min whi (base + block_words) - base in
      f b ~base ~lo ~hi
    done
  end

(* Expand the column's window into [dst] (a plain full-width bitmap):
   every word of [dst.(wlo..whi-1)] is written. *)
let write_into (t : t) dst ~wlo ~whi =
  if wlo < 0 || wlo > whi || whi > word_count t then
    invalid_arg "Column.write_into: word window out of range";
  iter_blocks ~wlo ~whi (fun b ~base ~lo ~hi ->
      match t.blocks.(b) with
      | Empty -> Array.fill dst (base + lo) (hi - lo) 0
      | Dense ws -> Array.blit ws lo dst (base + lo) (hi - lo)
      | Sparse (card, packed) ->
          Array.fill dst (base + lo) (hi - lo) 0;
          let i1 = sparse_lower packed card (hi * bpw) in
          for i = sparse_lower packed card (lo * bpw) to i1 - 1 do
            let off = sparse_get packed i in
            let w = base + div62 off in
            dst.(w) <- dst.(w) lor (1 lsl (off - ((w - base) * bpw)))
          done
      | Runs rs ->
          Array.fill dst (base + lo) (hi - lo) 0;
          let lob = lo * bpw and hib = hi * bpw in
          let nr = Array.length rs in
          let i = ref (runs_lower rs lob) in
          let continue = ref true in
          while !continue && !i < nr do
            let s = run_start rs.(!i) and e = run_stop rs.(!i) in
            if s >= hib then continue := false
            else begin
              let s = max s lob and e = min e hib in
              let fw = s / bpw and lw = (e - 1) / bpw in
              for w = fw to lw do
                let mlo = if w = fw then s - (w * bpw) else 0 in
                let mhi = if w = lw then e - (w * bpw) else bpw in
                dst.(base + w) <- dst.(base + w) lor word_mask ~lo:mlo ~hi:mhi
              done;
              incr i
            end
          done)

let to_words t =
  let nw = word_count t in
  let out = Array.make nw 0 in
  write_into t out ~wlo:0 ~whi:nw;
  out
