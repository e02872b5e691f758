open Ppdm_prng
open Ppdm_data
open Ppdm_mining
open Ppdm

(* Populate the scheme's per-size operator cache with every size occurring
   in the input, so the parallel [apply] calls below only read it. *)
let warm scheme db =
  Randomizer.warm_cache scheme ~sizes:(List.map fst (Db.size_histogram db))

(* One pool task per chunk of [chunk] rows: chunk [i] draws from
   [Rng.derive rng ~index:i], and [rng] advances by one draw before any
   task runs, as in [Pool.map_reduce].  Every draw then depends on the
   seed, the chunk and the row, never on the job count. *)
let randomize_chunks pool ~chunk scheme rng db fill =
  if Db.universe db <> Randomizer.universe scheme then
    invalid_arg "Parallel.randomize: universe mismatch";
  if chunk <= 0 then invalid_arg "Parallel.randomize: chunk must be positive";
  Ppdm_obs.Span.with_ ~name:"parallel.randomize" @@ fun () ->
  warm scheme db;
  let n = Db.length db in
  let tasks =
    Array.init ((n + chunk - 1) / chunk) (fun i ->
        let child = Rng.derive rng ~index:i in
        fun () -> fill i child)
  in
  ignore (Rng.bits64 rng);
  ignore (Pool.run pool tasks)

let randomize pool ?(chunk = Pool.default_chunk) scheme rng db =
  let txs = Db.transactions db in
  let store =
    Reports.create ~universe:(Db.universe db) ~rows:(Array.length txs) ~chunk
  in
  randomize_chunks pool ~chunk scheme rng db (fun i child ->
      Reports.randomize_chunk store i scheme child txs);
  store

(* The same chunks and children, each row through [Randomizer.apply]: the
   tagged rows are built as they are drawn, so no store is alive next to
   them. *)
let randomize_db_tagged pool ?(chunk = Pool.default_chunk) scheme rng db =
  let txs = Db.transactions db in
  let out = Array.make (Array.length txs) (0, Itemset.empty) in
  randomize_chunks pool ~chunk scheme rng db (fun i child ->
      for r = i * chunk to min (Array.length txs) ((i + 1) * chunk) - 1 do
        out.(r) <-
          (Itemset.cardinal txs.(r), Randomizer.apply scheme child txs.(r))
      done);
  out

let chunk_tasks ~n ~chunk make =
  let pieces = (n + chunk - 1) / chunk in
  Array.init pieces (fun i ->
      let pos = i * chunk in
      let len = min chunk (n - pos) in
      fun () -> make ~pos ~len)

let observe_all pool ?(chunk = Pool.default_chunk) ~scheme ~itemset data =
  if chunk <= 0 then invalid_arg "Parallel.observe_all: chunk must be positive";
  Ppdm_obs.Span.with_ ~name:"parallel.observe" @@ fun () ->
  let n = Array.length data in
  if n = 0 then Stream.create ~scheme ~itemset
  else begin
    let tasks =
      chunk_tasks ~n ~chunk (fun ~pos ~len ->
          let acc = Stream.create ~scheme ~itemset in
          for j = pos to pos + len - 1 do
            let size, y = data.(j) in
            Stream.observe acc ~size y
          done;
          acc)
    in
    Stream.merge (Array.to_list (Pool.run pool tasks))
  end

(* 2-D grid sharding of the vertical engine: the (bitmap-word x
   candidate) rectangle is cut into cache-sized cells by [Grid.plan] —
   word windows sized to an L2 footprint, candidate columns bounding the
   per-cell partial array.  Every cell counts its candidate range over
   its word window into a plain int array; adding each cell's partials
   into the totals at its column offset, in cell-index order, gives the
   full counts (counts over disjoint tid ranges are sums of non-negative
   ints, and columns just concatenate), so the result is bit-identical
   to the sequential count at any job count. *)
let support_counts_vertical pool ?chunk ?cand_chunk vt candidates =
  Ppdm_obs.Span.with_ ~name:"parallel.count" @@ fun () ->
  let n_words = Vertical.word_count vt in
  (match chunk with
  | Some c when c <= 0 ->
      invalid_arg "Parallel.support_counts_vertical: chunk must be positive"
  | _ -> ());
  let prepared = Vertical.prepare candidates in
  let n_cands = Vertical.prepared_length prepared in
  if n_cands = 0 then []
  else if n_words = 0 then
    Vertical.assemble prepared (Vertical.count_into vt prepared)
  else begin
    let grid =
      Grid.plan ?word_chunk:chunk ?cand_chunk ~n_words ~n_candidates:n_cands
        ()
    in
    let tasks =
      Array.map
        (fun (c : Grid.cell) ->
          fun () ->
            Vertical.count_into vt ~word_lo:c.Grid.word_lo
              ~word_hi:c.Grid.word_hi ~cand_lo:c.Grid.cand_lo
              ~cand_hi:c.Grid.cand_hi prepared)
        grid.Grid.cells
    in
    let parts = Pool.run pool tasks in
    let totals = Array.make n_cands 0 in
    Array.iteri
      (fun idx part ->
        let base = grid.Grid.cells.(idx).Grid.cand_lo in
        for i = 0 to Array.length part - 1 do
          totals.(base + i) <- totals.(base + i) + part.(i)
        done)
      parts;
    Vertical.assemble prepared totals
  end

(* Sampled counting shards like the vertical engine, except the word
   windows come from the plan's selected runs: each run is cut into
   sub-windows of at most [chunk] words, crossed with the same candidate
   columns the grid planner would cut, and the per-cell arrays are summed
   at their column offsets.  The plan itself is fixed before any task
   runs, so the raw sums — and the scaled counts — are bit-identical to
   the sequential [Sampled.support_counts] at any job count. *)
let support_counts_sampled pool ?chunk ?cand_chunk vt
    (plan : Sampled.plan) candidates =
  Ppdm_obs.Span.with_ ~name:"parallel.count" @@ fun () ->
  let selected_words =
    Array.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 plan.Sampled.runs
  in
  let chunk =
    match chunk with
    | Some c ->
        if c <= 0 then
          invalid_arg "Parallel.support_counts_sampled: chunk must be positive";
        c
    | None -> max 256 ((selected_words + 63) / 64)
  in
  let prepared = Vertical.prepare candidates in
  let len = Vertical.prepared_length prepared in
  let cand_chunk =
    match cand_chunk with
    | Some c ->
        if c <= 0 then
          invalid_arg
            "Parallel.support_counts_sampled: cand_chunk must be positive";
        c
    | None -> if len = 0 then 1 else Grid.cand_chunk_for ~n_candidates:len
  in
  if len = 0 then []
  else if selected_words = 0 then Vertical.assemble prepared (Array.make len 0)
  else begin
    let windows = ref [] in
    Array.iter
      (fun (lo, hi) ->
        let pos = ref lo in
        while !pos < hi do
          let wlo = !pos in
          let whi = min hi (wlo + chunk) in
          windows := (wlo, whi) :: !windows;
          pos := whi
        done)
      plan.Sampled.runs;
    let windows = Array.of_list (List.rev !windows) in
    let columns = (len + cand_chunk - 1) / cand_chunk in
    let n_windows = Array.length windows in
    let cells =
      Array.init (n_windows * columns) (fun idx ->
          let col = idx / n_windows and win = idx mod n_windows in
          let wlo, whi = windows.(win) in
          let clo = col * cand_chunk in
          let chi = min len ((col + 1) * cand_chunk) in
          (wlo, whi, clo, chi))
    in
    let tasks =
      Array.map
        (fun (wlo, whi, clo, chi) ->
          fun () ->
            Vertical.count_into vt ~word_lo:wlo ~word_hi:whi ~cand_lo:clo
              ~cand_hi:chi prepared)
        cells
    in
    let parts = Pool.run pool tasks in
    let totals = Array.make len 0 in
    Array.iteri
      (fun idx part ->
        let _, _, base, _ = cells.(idx) in
        for i = 0 to Array.length part - 1 do
          totals.(base + i) <- totals.(base + i) + part.(i)
        done)
      parts;
    Vertical.assemble prepared (Sampled.scale_counts plan totals)
  end

(* The one exact engine, grid-sharded: same level loop as
   [Apriori.mine_vertical], same cell-order reduction, so the output is
   bit-identical to it at any job count. *)
let exact_levels pool ?chunk ?cand_chunk ?max_size vt ~min_support =
  Ppdm_obs.Metrics.incr "apriori.counter.vertical";
  Apriori.run_vertical_levels ?max_size vt ~min_support
    ~count_level:(support_counts_vertical pool ?chunk ?cand_chunk vt)

(* The parallel entry point for any source: a transposed [Db.t]
   ([apriori_mine]) or a columnar file's [Vertical.of_colfile], which
   yields the same tid-sets. *)
let apriori_mine_vertical pool ?chunk ?cand_chunk ?max_size
    ?(counter = Apriori.Vertical) vt ~min_support =
  Threshold.check_min_support ~who:"Parallel.apriori_mine_vertical" min_support;
  Ppdm_obs.Span.with_ ~name:"parallel.apriori" @@ fun () ->
  match counter with
  | Apriori.Vertical | Apriori.Auto ->
      exact_levels pool ?chunk ?cand_chunk ?max_size vt ~min_support
  | Apriori.Sampled { fraction; seed } ->
      Ppdm_obs.Metrics.incr "apriori.counter.sampled";
      let plan =
        Sampled.plan ~n:(Vertical.length vt)
          ~word_count:(Vertical.word_count vt) ~fraction ~seed ()
      in
      Apriori.run_vertical_levels ?max_size vt ~min_support
        ~count_level:(support_counts_sampled pool ?chunk ?cand_chunk vt plan)

let apriori_mine pool ?chunk ?max_size ?counter db ~min_support =
  (* checked here too, so the error names this entry and no transpose
     runs first *)
  Threshold.check_min_support ~who:"Parallel.apriori_mine" min_support;
  apriori_mine_vertical pool ?chunk ?max_size ?counter (Vertical.of_db db)
    ~min_support
