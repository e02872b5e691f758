(* 2-D work-grid planning for the vertical counting engine: cut the
   (bitmap-word x candidate) rectangle over some word runs into
   cache-sized cells.  Counting a whole database plans over the one run
   [0, n_words).  The plan is a pure function of the runs, the batch size
   and the explicit overrides — never of the job count — which is what
   lets the pool execute the cells in any order while the reduction stays
   bit-identical. *)

type cell = { word_lo : int; word_hi : int; cand_lo : int; cand_hi : int }

type t = { word_chunk : int; cand_chunk : int; cells : cell array }

let l2_bytes = 1 lsl 20

(* A counting cell streams, per candidate, up to three live dense
   word-windows (the running prefix intersection, the item being ANDed
   in, and the freshly built result) of 8 bytes per word, and should
   leave half the budget for sparse tid ranges and the partial-count
   array: word_chunk = l2 / (2 * 3 * 8).  Small databases are not cut
   finer than the PR 5 default (at most 64 windows of >= 256 words), so
   the planner only deviates from the 1-D sharding once the database is
   big enough that an L2-sized window is the smaller of the two. *)
let word_chunk_for ~n_words =
  let l2_cap = max 256 (l2_bytes / 48) in
  max 256 (min l2_cap ((n_words + 63) / 64))

(* Candidate columns bound the per-cell partial-count array (8 bytes per
   candidate, <= 32 KiB at the cap) and give the pool a second axis to
   spread over: at most 16 columns of at least 512 candidates, so small
   batches stay one column (zero overhead vs the 1-D sharding) and the
   huge level-2 batches split without losing prefix reuse inside a
   column. *)
let cand_chunk_for ~n_candidates =
  max 512 (min 4096 ((n_candidates + 15) / 16))

let positive name = function
  | Some c when c <= 0 ->
      invalid_arg (Printf.sprintf "Grid.plan: %s must be positive" name)
  | c -> c

let plan ?word_chunk ?cand_chunk ~runs ~n_candidates () =
  if n_candidates < 0 then invalid_arg "Grid.plan: negative n_candidates";
  let n_words, _ =
    Array.fold_left
      (fun (words, prev_hi) (lo, hi) ->
        if lo < prev_hi || hi < lo then
          invalid_arg "Grid.plan: runs must be ascending and disjoint";
        (words + hi - lo, hi))
      (0, 0) runs
  in
  let word_chunk =
    match positive "word_chunk" word_chunk with
    | Some c -> c
    | None -> word_chunk_for ~n_words
  in
  let cand_chunk =
    match positive "cand_chunk" cand_chunk with
    | Some c -> c
    | None -> cand_chunk_for ~n_candidates
  in
  (* The word axis: each run cut into windows of at most [word_chunk]
     words, in run order. *)
  let windows =
    Array.concat
      (List.map
         (fun (lo, hi) ->
           Array.init
             ((hi - lo + word_chunk - 1) / word_chunk)
             (fun i -> (lo + (i * word_chunk), min hi (lo + ((i + 1) * word_chunk)))))
         (Array.to_list runs))
  in
  let n_windows = Array.length windows in
  let columns = (n_candidates + cand_chunk - 1) / cand_chunk in
  (* Column-major: a column's windows are adjacent in cell order, so a
     worker's contiguous deque slice walks one candidate range across
     ascending tid windows — the access pattern the prefix scratch and
     the sparse lower-bound cursors like best. *)
  let cells =
    Array.init (n_windows * columns) (fun idx ->
        let col = idx / n_windows and win = idx mod n_windows in
        let word_lo, word_hi = windows.(win) in
        {
          word_lo;
          word_hi;
          cand_lo = col * cand_chunk;
          cand_hi = min n_candidates ((col + 1) * cand_chunk);
        })
  in
  { word_chunk; cand_chunk; cells }
