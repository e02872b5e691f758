open Ppdm_prng
open Ppdm_data

let fixed_size rng ~universe ~size ~count =
  if size < 0 || size > universe then invalid_arg "Simple.fixed_size: bad size";
  let make _ =
    Itemset.of_sorted_array_unchecked
      (Dist.sample_distinct rng ~k:size ~bound:universe)
  in
  Db.create ~universe (Array.init count make)

let zipf_clickstream rng ~universe ~exponent ~avg_size ~count =
  let z = Dist.zipf ~n:universe ~s:exponent in
  let make _ =
    let target = min universe (max 1 (Dist.poisson rng ~mean:avg_size)) in
    let seen = Hashtbl.create (2 * target) in
    (* Rejection on duplicates; with Zipf popularity collisions are common,
       so cap the attempts and accept a slightly smaller transaction. *)
    let attempts = ref 0 in
    while Hashtbl.length seen < target && !attempts < 50 * target do
      incr attempts;
      Hashtbl.replace seen (Dist.zipf_sample rng z) ()
    done;
    Itemset.of_list (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  in
  Db.create ~universe (Array.init count make)

let planted rng ~universe ~size ~count ~itemset ~support =
  let k = Itemset.cardinal itemset in
  if k > size then invalid_arg "Simple.planted: itemset larger than size";
  if size > universe then invalid_arg "Simple.planted: size exceeds universe";
  if support < 0. || support > 1. then
    invalid_arg "Simple.planted: support out of [0,1]";
  let planted_count =
    int_of_float (Float.round (support *. float_of_int count))
  in
  let complement =
    Array.of_seq
      (Seq.filter
         (fun x -> not (Itemset.mem x itemset))
         (Seq.init universe Fun.id))
  in
  let make i =
    if i < planted_count then
      let extra = Dist.subset rng ~k:(size - k) complement in
      Itemset.union itemset (Itemset.of_array extra)
    else begin
      (* A transaction that must NOT contain all of [itemset]: draw
         uniformly among size-subsets and reject the (rare) full hits, so
         the planted count is exact. *)
      let rec draw () =
        let tx =
          Itemset.of_sorted_array_unchecked
            (Dist.sample_distinct rng ~k:size ~bound:universe)
        in
        if Itemset.subset itemset tx then draw () else tx
      in
      draw ()
    end
  in
  let transactions = Array.init count make in
  Dist.shuffle rng transactions;
  Db.create ~universe transactions
