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

(* 2-D grid sharding of the vertical engine: the (word-run x candidate)
   rectangle is cut into cache-sized cells by [Grid.plan] — word windows
   sized to an L2 footprint, candidate columns bounding the per-cell
   partial array.  Every cell counts its candidate range over its word
   window into a plain int array; adding each cell's partials into the
   totals at its column offset, in cell-index order, gives the counts
   over the runs (counts over disjoint tid ranges are sums of
   non-negative ints, and columns just concatenate), so the result is
   bit-identical to the sequential count at any job count. *)
let count_cells pool ?chunk ?cand_chunk vt ~runs candidates =
  Ppdm_obs.Span.with_ ~name:"parallel.count" @@ fun () ->
  let prepared = Vertical.prepare candidates in
  let n_cands = Vertical.prepared_length prepared in
  let grid =
    Grid.plan ?word_chunk:chunk ?cand_chunk ~runs ~n_candidates:n_cands ()
  in
  let parts =
    Pool.run pool
      (Array.map
         (fun (c : Grid.cell) ->
           fun () ->
             Vertical.count_into vt ~word_lo:c.Grid.word_lo
               ~word_hi:c.Grid.word_hi ~cand_lo:c.Grid.cand_lo
               ~cand_hi:c.Grid.cand_hi prepared)
         grid.Grid.cells)
  in
  let totals = Array.make n_cands 0 in
  Array.iteri
    (fun idx part ->
      let base = grid.Grid.cells.(idx).Grid.cand_lo in
      for i = 0 to Array.length part - 1 do
        totals.(base + i) <- totals.(base + i) + part.(i)
      done)
    parts;
  (prepared, totals)

let support_counts_vertical pool ?chunk ?cand_chunk vt candidates =
  let prepared, totals =
    count_cells pool ?chunk ?cand_chunk vt
      ~runs:[| (0, Vertical.word_count vt) |]
      candidates
  in
  Vertical.assemble prepared totals

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
      (* the exact grid restricted to the sample's runs, then scaled *)
      Apriori.run_vertical_levels ?max_size vt ~min_support
        ~count_level:(fun candidates ->
          let prepared, raw =
            count_cells pool ?chunk ?cand_chunk vt ~runs:plan.Sampled.runs
              candidates
          in
          Vertical.assemble prepared (Sampled.scale_counts plan raw))

let apriori_mine pool ?chunk ?max_size ?counter db ~min_support =
  (* checked here too, so the error names this entry and no transpose
     runs first *)
  Threshold.check_min_support ~who:"Parallel.apriori_mine" min_support;
  apriori_mine_vertical pool ?chunk ?max_size ?counter (Vertical.of_db db)
    ~min_support
