(* 2-D work-grid planning for the vertical counting engine: cut a
   (bitmap-word x candidate) rectangle into cache-sized cells.  The plan
   is a pure function of the data shape and the explicit overrides —
   never of the job count — which is what lets the pool execute the
   cells in any order while the reduction stays bit-identical. *)

type cell = { word_lo : int; word_hi : int; cand_lo : int; cand_hi : int }

type t = { word_chunk : int; cand_chunk : int; cells : cell array }

let default_l2_bytes = 1 lsl 20

(* A counting cell streams, per candidate, up to three live dense
   word-windows (the running prefix intersection, the item being ANDed
   in, and the freshly built result) of 8 bytes per word, and should
   leave half the budget for sparse tid ranges and the partial-count
   array: word_chunk = l2 / (2 * 3 * 8).  Small databases are not cut
   finer than the PR 5 default (at most 64 windows of >= 256 words), so
   the planner only deviates from the 1-D sharding once the database is
   big enough that an L2-sized window is the smaller of the two. *)
let word_chunk_for ?(l2_bytes = default_l2_bytes) ~n_words () =
  if l2_bytes <= 0 then invalid_arg "Grid: l2_bytes must be positive";
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

let plan ?l2_bytes ?word_chunk ?(align = 1) ?cand_chunk ~n_words ~n_candidates
    () =
  if n_words <= 0 then invalid_arg "Grid.plan: n_words must be positive";
  if n_candidates <= 0 then
    invalid_arg "Grid.plan: n_candidates must be positive";
  if align <= 0 then invalid_arg "Grid.plan: align must be positive";
  let word_chunk =
    match word_chunk with
    | Some c ->
        if c <= 0 then invalid_arg "Grid.plan: word_chunk must be positive";
        c
    | None -> word_chunk_for ?l2_bytes ~n_words ()
  in
  (* Rounding up to the alignment (compressed-container block seams) is a
     pure function of the shape and the alignment — still independent of
     the job count, so determinism is untouched; only the final window of
     the database may stay unaligned. *)
  let word_chunk = (word_chunk + align - 1) / align * align in
  let cand_chunk =
    match cand_chunk with
    | Some c ->
        if c <= 0 then invalid_arg "Grid.plan: cand_chunk must be positive";
        c
    | None -> cand_chunk_for ~n_candidates
  in
  let windows = (n_words + word_chunk - 1) / word_chunk in
  let columns = (n_candidates + cand_chunk - 1) / cand_chunk in
  (* Column-major: a column's windows are adjacent in cell order, so a
     worker's contiguous deque slice walks one candidate range across
     ascending tid windows — the access pattern the prefix scratch and
     the sparse lower-bound cursors like best. *)
  let cells =
    Array.init (windows * columns) (fun idx ->
        let col = idx / windows and win = idx mod windows in
        {
          word_lo = win * word_chunk;
          word_hi = min n_words ((win + 1) * word_chunk);
          cand_lo = col * cand_chunk;
          cand_hi = min n_candidates ((col + 1) * cand_chunk);
        })
  in
  { word_chunk; cand_chunk; cells }
