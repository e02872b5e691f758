open Ppdm_data
open Ppdm_runtime

let reports scheme rng db =
  Pool.with_pool ~jobs:1 (fun pool -> Parallel.randomize pool scheme rng db)

let rows store =
  let out = Array.make (Ppdm.Reports.length store) (0, Itemset.empty) in
  let r = ref 0 in
  Ppdm.Reports.iter_rows store (fun size items off len ->
      let y = Itemset.of_sorted_array_unchecked (Array.sub items off len) in
      out.(!r) <- (size, y);
      incr r);
  out

let tagged scheme rng db = rows (reports scheme rng db)
