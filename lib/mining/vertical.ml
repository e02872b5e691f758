open Ppdm_data

let bits_per_word = Bitset.bits_per_word

(* A tid-set is the set of transaction indices containing an item, in one
   of two shapes: a packed bitmap (bit [tid mod 62] of word [tid / 62],
   tail bits zero) or a strictly increasing tid array.  Cardinalities and
   counts never depend on which shape a set happens to be in. *)
type tidset = Dense of int array | Sparse of int array

type t = {
  n : int;
  n_words : int;
  universe : int;
  tidsets : tidset array;
  counts : int array;
}

let length t = t.n
let universe t = t.universe
let word_count t = t.n_words
let item_count t item = t.counts.(item)

let dense_items t =
  Array.fold_left
    (fun acc ts -> match ts with Dense _ -> acc + 1 | Sparse _ -> acc)
    0 t.tidsets

let sparse_items t = t.universe - dense_items t

(* --- kernels ------------------------------------------------------- *)

(* All kernels take an explicit word window [wlo, whi) (tid range
   [wlo*62, whi*62)); sparse operands come pre-restricted as an index
   range into their tid array. *)

let and_words_card a b ~wlo ~whi =
  let card = ref 0 in
  for w = wlo to whi - 1 do
    card := !card + Bitset.popcount (a.(w) land b.(w))
  done;
  !card

let and_words_into a b dst ~wlo ~whi =
  let card = ref 0 in
  for w = wlo to whi - 1 do
    let v = a.(w) land b.(w) in
    dst.(w) <- v;
    card := !card + Bitset.popcount v
  done;
  !card

(* Popcount of a single bitmap's window (level-1 candidates). *)
let popcount_words words ~wlo ~whi =
  let card = ref 0 in
  for w = wlo to whi - 1 do
    card := !card + Bitset.popcount words.(w)
  done;
  !card

(* Probe the tids [tids.(slo..shi-1)] against a bitmap. *)
let probe_card words tids ~slo ~shi =
  let card = ref 0 in
  for idx = slo to shi - 1 do
    let tid = tids.(idx) in
    if words.(tid / bits_per_word) lsr (tid mod bits_per_word) land 1 = 1 then
      incr card
  done;
  !card

let probe_into words tids ~slo ~shi dst =
  let len = ref 0 in
  for idx = slo to shi - 1 do
    let tid = tids.(idx) in
    if words.(tid / bits_per_word) lsr (tid mod bits_per_word) land 1 = 1
    then begin
      dst.(!len) <- tid;
      incr len
    end
  done;
  !len

let merge_card a ~alo ~ahi b ~blo ~bhi =
  let i = ref alo and j = ref blo and k = ref 0 in
  while !i < ahi && !j < bhi do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !k

let merge_into a ~alo ~ahi b ~blo ~bhi dst =
  let i = ref alo and j = ref blo and k = ref 0 in
  while !i < ahi && !j < bhi do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      dst.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !k

(* Decode the set bits of [words.(wlo..whi-1)] into ascending tids.
   [b land (-b)] isolates the lowest set bit; popcount of (bit - 1) is
   its index. *)
let write_tids_of_words words ~wlo ~whi dst =
  let k = ref 0 in
  for w = wlo to whi - 1 do
    let v = ref words.(w) in
    let base = w * bits_per_word in
    while !v <> 0 do
      let bit = !v land (- !v) in
      dst.(!k) <- base + Bitset.popcount (bit - 1);
      incr k;
      v := !v land (!v - 1)
    done
  done;
  !k

(* First index in [tids] holding a tid >= [bound] (all of [tids] if none
   is smaller, [Array.length tids] if all are). *)
let lower_bound tids bound =
  let lo = ref 0 and hi = ref (Array.length tids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if tids.(mid) < bound then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- standalone tid-set algebra (the Eclat interface) -------------- *)

let tidset_is_dense = function Dense _ -> true | Sparse _ -> false

let tidset_tids = function
  | Sparse tids -> Array.copy tids
  | Dense words ->
      let card = and_words_card words words ~wlo:0 ~whi:(Array.length words) in
      let out = Array.make card 0 in
      ignore (write_tids_of_words words ~wlo:0 ~whi:(Array.length words) out);
      out

(* Result representation follows the memory break-even rule: sparse as
   soon as the tid array is no larger than the bitmap.  Exact-size
   allocations (count pass, then fill pass) because Eclat keeps results
   alive down a whole DFS branch. *)
let inter_tidsets a b =
  match (a, b) with
  | Dense wa, Dense wb ->
      let nw = Array.length wa in
      if Array.length wb <> nw then
        invalid_arg "Vertical.inter_tidsets: dense word counts differ";
      let card = and_words_card wa wb ~wlo:0 ~whi:nw in
      let words = Array.make nw 0 in
      ignore (and_words_into wa wb words ~wlo:0 ~whi:nw);
      if card < nw then begin
        let tids = Array.make card 0 in
        ignore (write_tids_of_words words ~wlo:0 ~whi:nw tids);
        (Sparse tids, card)
      end
      else (Dense words, card)
  | Dense words, Sparse tids | Sparse tids, Dense words ->
      let shi = Array.length tids in
      let card = probe_card words tids ~slo:0 ~shi in
      let out = Array.make card 0 in
      ignore (probe_into words tids ~slo:0 ~shi out);
      (Sparse out, card)
  | Sparse ta, Sparse tb ->
      let ahi = Array.length ta and bhi = Array.length tb in
      let card = merge_card ta ~alo:0 ~ahi tb ~blo:0 ~bhi in
      let out = Array.make card 0 in
      ignore (merge_into ta ~alo:0 ~ahi tb ~blo:0 ~bhi out);
      (Sparse out, card)

(* --- load ---------------------------------------------------------- *)

let item_tidset t item = t.tidsets.(item)

let resident_bytes t =
  Array.fold_left
    (fun acc ts ->
      match ts with
      | Dense words -> acc + (8 * Array.length words)
      | Sparse tids -> acc + (8 * Array.length tids))
    0 t.tidsets

let emit_load_metrics t =
  if Ppdm_obs.Metrics.enabled () then begin
    let dense = dense_items t in
    Ppdm_obs.Metrics.add "vertical.load.dense_items" dense;
    Ppdm_obs.Metrics.add "vertical.load.sparse_items" (t.universe - dense);
    Ppdm_obs.Metrics.add "vertical.load.bytes" (resident_bytes t)
  end

(* Adopted, not copied: a caller that fills its own arrays (the private
   miner's report store) must not pay a second transpose. *)
let adopt ?cutoff ~n ~counts payloads =
  let universe = Array.length counts and n_words = Bitset.words_for n in
  if Array.length payloads <> universe then
    invalid_arg "Vertical.of_payloads: one payload per item";
  let tidsets =
    Array.mapi
      (fun item p ->
        let dense = Bitset.dense_for ?cutoff ~n counts.(item) in
        if Array.length p <> if dense then n_words else counts.(item) then
          invalid_arg
            "Vertical.of_payloads: payload length disagrees with its shape";
        if dense then Dense p else Sparse p)
      payloads
  in
  let t = { n; n_words; universe; tidsets; counts } in
  emit_load_metrics t;
  t

let of_payloads ~n ~counts payloads = adopt ~n ~counts payloads

let of_db ?dense_cutoff db =
  (match dense_cutoff with
  | Some c when not (c >= 0.) ->
      invalid_arg "Vertical.of_db: dense_cutoff must be >= 0"
  | _ -> ());
  Ppdm_obs.Span.with_ ~name:"vertical.load" (fun () ->
      let n = Db.length db and counts = Db.item_counts db in
      let b = Bitset.builder ?cutoff:dense_cutoff ~n counts in
      Db.iteri
        (fun tid tx ->
          let items = Itemset.unsafe_to_array tx in
          Bitset.fill_row b ~tid items ~off:0 ~len:(Array.length items))
        db;
      adopt ?cutoff:dense_cutoff ~n ~counts (Bitset.finish b))

(* A PPDMC payload already is the tid-set in the shape [of_db] picks, so
   the load adopts what the reader validated: one pass over the file, no
   second layout. *)
let of_colfile cf =
  Ppdm_obs.Span.with_ ~name:"columnar.load" (fun () ->
      let counts = Array.init (Colfile.universe cf) (Colfile.item_count cf) in
      of_payloads ~n:(Colfile.length cf) ~counts
        (Array.init (Array.length counts) (Colfile.payload cf)))

let to_db t =
  let buckets = Array.make (max t.n 1) [] in
  (* items walked downward so each tid's cons list comes out ascending *)
  for item = t.universe - 1 downto 0 do
    Array.iter
      (fun tid -> buckets.(tid) <- item :: buckets.(tid))
      (tidset_tids t.tidsets.(item))
  done;
  Db.create ~universe:t.universe
    (Array.init t.n (fun tid -> Itemset.of_list buckets.(tid)))

(* --- batch counting with prefix reuse ------------------------------ *)

(* One intersection buffer per prefix depth.  [bufs.(d)] holds the
   intersection of the current candidate's items [0..d] (d >= 1), either
   as a full-width bitmap in [words] or as [len] tids in [tids]; both
   arrays are lazily allocated and kept across candidates, levels, and
   [count_into] calls, so the steady state allocates nothing. *)
type buf = {
  mutable dense : bool;
  mutable words : int array;
  mutable tids : int array;
  mutable len : int;
}

type scratch = {
  s_n_words : int;
  mutable bufs : buf array;
  mutable prev : int array; (* last counted candidate's items *)
  mutable prev_len : int;
  mutable valid_depth : int; (* max d with bufs.(d) = /\ prev.(0..d) *)
  mutable allocs : int;
  mutable touched : int; (* words (dense) or tids (sparse) read *)
}

let fresh_buf () = { dense = false; words = [||]; tids = [||]; len = 0 }

let make_scratch t =
  {
    s_n_words = t.n_words;
    bufs = [||];
    prev = [||];
    prev_len = 0;
    valid_depth = 0;
    allocs = 0;
    touched = 0;
  }

let ensure_depth scratch d =
  let have = Array.length scratch.bufs in
  if d >= have then begin
    let bufs = Array.init (max (d + 1) (2 * have)) (fun _ -> fresh_buf ()) in
    Array.blit scratch.bufs 0 bufs 0 have;
    scratch.bufs <- bufs
  end

let ensure_words scratch buf =
  if Array.length buf.words = 0 && scratch.s_n_words > 0 then begin
    buf.words <- Array.make scratch.s_n_words 0;
    scratch.allocs <- scratch.allocs + 1
  end

let ensure_tids scratch buf capacity =
  if Array.length buf.tids < capacity then begin
    buf.tids <- Array.make (max capacity (2 * Array.length buf.tids)) 0;
    scratch.allocs <- scratch.allocs + 1
  end

(* An intersection operand inside one windowed counting run: a bitmap
   (always read through the window) or a tid index range that is already
   window-restricted. *)
type view = V_dense of int array | V_sparse of int array * int * int

let view_of_tidset ts ~wlo ~whi ~full =
  match ts with
  | Dense words -> V_dense words
  | Sparse tids ->
      if full then V_sparse (tids, 0, Array.length tids)
      else
        let slo = lower_bound tids (wlo * bits_per_word) in
        let shi = lower_bound tids (whi * bits_per_word) in
        V_sparse (tids, slo, shi)

let view_of_buf buf =
  if buf.dense then V_dense buf.words else V_sparse (buf.tids, 0, buf.len)

(* Count |acc /\ item| without storing the result (the last item of a
   candidate). *)
let count_view scratch a b ~wlo ~whi =
  match (a, b) with
  | V_dense wa, V_dense wb ->
      scratch.touched <- scratch.touched + (2 * (whi - wlo));
      and_words_card wa wb ~wlo ~whi
  | V_dense words, V_sparse (tids, slo, shi)
  | V_sparse (tids, slo, shi), V_dense words ->
      scratch.touched <- scratch.touched + (shi - slo);
      probe_card words tids ~slo ~shi
  | V_sparse (ta, alo, ahi), V_sparse (tb, blo, bhi) ->
      scratch.touched <- scratch.touched + (ahi - alo) + (bhi - blo);
      merge_card ta ~alo ~ahi tb ~blo ~bhi

(* Store acc /\ item into [dst].  A dense result converts to sparse when
   its cardinality drops below the window width in words — every later
   intersection along this prefix then probes instead of scanning. *)
let build_view scratch a b dst ~wlo ~whi =
  match (a, b) with
  | V_dense wa, V_dense wb ->
      scratch.touched <- scratch.touched + (2 * (whi - wlo));
      ensure_words scratch dst;
      let card = and_words_into wa wb dst.words ~wlo ~whi in
      if card < whi - wlo then begin
        ensure_tids scratch dst card;
        ignore (write_tids_of_words dst.words ~wlo ~whi dst.tids);
        dst.dense <- false;
        dst.len <- card
      end
      else dst.dense <- true
  | V_dense words, V_sparse (tids, slo, shi)
  | V_sparse (tids, slo, shi), V_dense words ->
      scratch.touched <- scratch.touched + (shi - slo);
      ensure_tids scratch dst (shi - slo);
      dst.len <- probe_into words tids ~slo ~shi dst.tids;
      dst.dense <- false
  | V_sparse (ta, alo, ahi), V_sparse (tb, blo, bhi) ->
      scratch.touched <- scratch.touched + (ahi - alo) + (bhi - blo);
      ensure_tids scratch dst (min (ahi - alo) (bhi - blo));
      dst.len <- merge_into ta ~alo ~ahi tb ~blo ~bhi dst.tids;
      dst.dense <- false

let common_prefix prev prev_len items k =
  let cap = min prev_len k in
  let i = ref 0 in
  while !i < cap && prev.(!i) = items.(!i) do
    incr i
  done;
  !i

let count_one t scratch ~wlo ~whi ~full items =
  let k = Array.length items in
  (* Items are ascending, so one bound check covers them all; an
     out-of-universe item appears in no transaction (trie parity: such
     candidates report 0). *)
  if items.(k - 1) >= t.universe then 0
  else begin
    (* bufs.(d) survives from the previous candidate only while the first
       d+1 items agree. *)
    let common = common_prefix scratch.prev scratch.prev_len items k in
    scratch.valid_depth <- max 0 (min scratch.valid_depth (common - 1));
    scratch.prev <- items;
    scratch.prev_len <- k;
    if k = 1 then begin
      if full then t.counts.(items.(0))
      else
        match t.tidsets.(items.(0)) with
        | Dense words ->
            scratch.touched <- scratch.touched + (whi - wlo);
            popcount_words words ~wlo ~whi
        | Sparse tids ->
            lower_bound tids (whi * bits_per_word)
            - lower_bound tids (wlo * bits_per_word)
    end
    else begin
      let item_view i = view_of_tidset t.tidsets.(i) ~wlo ~whi ~full in
      if k >= 3 then begin
        ensure_depth scratch (k - 2);
        for d = max 1 (scratch.valid_depth + 1) to k - 2 do
          let acc =
            if d = 1 then item_view items.(0)
            else view_of_buf scratch.bufs.(d - 1)
          in
          build_view scratch acc (item_view items.(d)) scratch.bufs.(d) ~wlo
            ~whi
        done;
        scratch.valid_depth <- k - 2
      end;
      let acc =
        if k = 2 then item_view items.(0)
        else view_of_buf scratch.bufs.(k - 2)
      in
      count_view scratch acc (item_view items.(k - 1)) ~wlo ~whi
    end
  end

type prepared = Itemset.t array (* Itemset.compare-sorted, unique *)

let prepare candidates =
  let arr = Array.of_list candidates in
  Array.iter
    (fun c ->
      if Itemset.is_empty c then invalid_arg "Vertical.prepare: empty candidate")
    arr;
  Array.sort Itemset.compare arr;
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = ref 1 in
    for i = 1 to n - 1 do
      if not (Itemset.equal arr.(i) arr.(!out - 1)) then begin
        arr.(!out) <- arr.(i);
        incr out
      end
    done;
    if !out = n then arr else Array.sub arr 0 !out
  end

let prepared_length = Array.length

let count_into ?scratch t ?(word_lo = 0) ?word_hi ?(cand_lo = 0) ?cand_hi
    prepared =
  let word_hi = Option.value word_hi ~default:t.n_words in
  if word_lo < 0 || word_lo > word_hi || word_hi > t.n_words then
    invalid_arg "Vertical.count_into: word window out of range";
  let cand_hi = Option.value cand_hi ~default:(Array.length prepared) in
  if cand_lo < 0 || cand_lo > cand_hi || cand_hi > Array.length prepared then
    invalid_arg "Vertical.count_into: candidate range out of range";
  let scratch =
    match scratch with
    | Some s ->
        if s.s_n_words <> t.n_words then
          invalid_arg "Vertical.count_into: scratch built for another width";
        s
    | None -> make_scratch t
  in
  let allocs0 = scratch.allocs and touched0 = scratch.touched in
  (* Buffers hold leftovers from an unrelated call or window. *)
  scratch.prev <- [||];
  scratch.prev_len <- 0;
  scratch.valid_depth <- 0;
  let full = word_lo = 0 && word_hi = t.n_words in
  (* The range keeps the batch's sort order, so prefix reuse works inside
     a candidate column exactly as it does over the whole batch. *)
  let out =
    Array.init (cand_hi - cand_lo) (fun i ->
        count_one t scratch ~wlo:word_lo ~whi:word_hi ~full
          (Itemset.unsafe_to_array prepared.(cand_lo + i)))
  in
  if Ppdm_obs.Metrics.enabled () then begin
    Ppdm_obs.Metrics.add "vertical.candidates" (cand_hi - cand_lo);
    Ppdm_obs.Metrics.add "vertical.scratch.allocs" (scratch.allocs - allocs0);
    Ppdm_obs.Metrics.add "vertical.words.touched" (scratch.touched - touched0)
  end;
  out

let assemble prepared counts =
  if Array.length prepared <> Array.length counts then
    invalid_arg "Vertical.assemble: length mismatch";
  let out = ref [] in
  for i = Array.length prepared - 1 downto 0 do
    out := (prepared.(i), counts.(i)) :: !out
  done;
  !out

let support_counts ?scratch t candidates =
  Ppdm_obs.Metrics.time "vertical.support_counts_ns" (fun () ->
      let prepared = prepare candidates in
      assemble prepared (count_into ?scratch t prepared))

let support_count ?scratch t itemset =
  if Itemset.is_empty itemset then
    invalid_arg "Vertical.support_count: empty itemset";
  (count_into ?scratch t [| itemset |]).(0)
