open Ppdm_data

type t = {
  scheme : Randomizer.t;
  itemset : Itemset.t;
  k : int;
  by_size : Estimator.by_size;
  mutable observed : int;
}

let create ~scheme ~itemset =
  {
    scheme;
    itemset;
    k = Itemset.cardinal itemset;
    by_size = Hashtbl.create 8;
    observed = 0;
  }

let itemset t = t.itemset
let observed t = t.observed

let slot t size = Estimator.size_slot t.by_size ~k:t.k size

let observe t ~size y =
  Ppdm_obs.Metrics.incr "stream.observed";
  let counts = slot t size in
  let l' = Itemset.inter_size t.itemset y in
  counts.(l') <- counts.(l') + 1;
  t.observed <- t.observed + 1

let observe_all t data = Array.iter (fun (size, y) -> observe t ~size y) data

let merge_into t ~from =
  if not (Itemset.equal t.itemset from.itemset) then
    invalid_arg "Stream.merge_into: itemset mismatch";
  (* Accumulators built under different schemes must not merge: estimate
     inverts t's transition matrices, so foreign counts would silently
     produce wrong estimates.  Compare the operator parameters at every
     size either side has observed (parameters, not names — a scheme
     round-tripped through Scheme_io still matches). *)
  let sizes =
    let tbl = Hashtbl.create 8 in
    Hashtbl.iter (fun size _ -> Hashtbl.replace tbl size ()) t.by_size;
    Hashtbl.iter (fun size _ -> Hashtbl.replace tbl size ()) from.by_size;
    Hashtbl.fold (fun size () acc -> size :: acc) tbl []
  in
  if not (Randomizer.same_parameters t.scheme from.scheme ~sizes) then
    invalid_arg "Stream.merge_into: scheme mismatch";
  Hashtbl.iter
    (fun size counts ->
      let mine = slot t size in
      Array.iteri (fun l c -> mine.(l) <- mine.(l) + c) counts)
    from.by_size;
  t.observed <- t.observed + from.observed

let merge = function
  | [] -> invalid_arg "Stream.merge: empty list"
  | first :: rest ->
      Ppdm_obs.Span.with_ ~name:"stream.merge" (fun () ->
          let acc = create ~scheme:first.scheme ~itemset:first.itemset in
          merge_into acc ~from:first;
          List.iter (fun t -> merge_into acc ~from:t) rest;
          acc)

let estimate t =
  if t.observed = 0 then invalid_arg "Stream.estimate: no observations yet";
  Ppdm_obs.Span.with_ ~name:"stream.estimate" (fun () ->
      Estimator.estimate_from_counts ~scheme:t.scheme ~k:t.k
        ~counts:(Estimator.sorted_by_size t.by_size))
