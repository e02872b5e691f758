open Ppdm_data

type t = {
  scheme : Randomizer.t;
  itemset : Itemset.t;
  k : int;
  mutable counts : int array;  (** the by-size layout of {!Estimator} *)
  mutable observed : int;
}

let create ~scheme ~itemset =
  {
    scheme;
    itemset;
    k = Itemset.cardinal itemset;
    counts = [||];
    observed = 0;
  }

let itemset t = t.itemset
let observed t = t.observed
let counts t = Array.copy t.counts

(* Grow the layout to [len] counts, exactly: it stays as long as the
   largest size seen. *)
let reserve t len =
  let missing = len - Array.length t.counts in
  if missing > 0 then t.counts <- Array.append t.counts (Array.make missing 0)

let observe t ~size y =
  if size < 0 || size > Randomizer.universe t.scheme then
    invalid_arg "Stream.observe: size outside [0, universe]";
  let off = size * (t.k + 1) in
  if off >= Array.length t.counts then reserve t (off + t.k + 1);
  let i = off + Itemset.inter_size t.itemset y in
  t.counts.(i) <- t.counts.(i) + 1;
  t.observed <- t.observed + 1

let observe_all t data =
  Array.iter (fun (size, y) -> observe t ~size y) data;
  Ppdm_obs.Metrics.add "stream.observed" (Array.length data)

(* The one add loop: [merge] and every shard merge go through it. *)
let add ~who t ~scheme ~itemset ~observed counts =
  if not (Itemset.equal t.itemset itemset) then
    invalid_arg (who ^ ": itemset mismatch");
  if Array.length counts mod (t.k + 1) <> 0 then
    invalid_arg (who ^ ": layout length is not a multiple of k + 1");
  (* Accumulators built under different schemes must not merge: estimate
     inverts t's transition matrices, so foreign counts would silently
     produce wrong estimates.  Compare the operator parameters at every
     size either side has observed (parameters, not names — a scheme
     round-tripped through Scheme_io still matches).  One scheme value,
     as every shard of a server shares, needs no comparison. *)
  let sizes () =
    List.sort_uniq Int.compare
      (Estimator.observed_sizes ~k:t.k t.counts
      @ Estimator.observed_sizes ~k:t.k counts)
  in
  if
    t.scheme != scheme
    && not (Randomizer.same_parameters t.scheme scheme ~sizes:(sizes ()))
  then invalid_arg (who ^ ": scheme mismatch");
  reserve t (Array.length counts);
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) counts;
  t.observed <- t.observed + observed

let add_layout = add ~who:"Stream.add_layout"

let merge = function
  | [] -> invalid_arg "Stream.merge: empty list"
  | first :: _ as ts ->
      Ppdm_obs.Span.with_ ~name:"stream.merge" (fun () ->
          let acc = create ~scheme:first.scheme ~itemset:first.itemset in
          List.iter
            (fun t ->
              add ~who:"Stream.merge" acc ~scheme:t.scheme ~itemset:t.itemset
                ~observed:t.observed t.counts)
            ts;
          acc)

let estimate t =
  if t.observed = 0 then invalid_arg "Stream.estimate: no observations yet";
  Ppdm_obs.Span.with_ ~name:"stream.estimate" (fun () ->
      Estimator.estimate_by_size ~scheme:t.scheme ~k:t.k t.counts)
