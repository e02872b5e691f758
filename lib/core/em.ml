open Ppdm_data
open Ppdm_linalg

type t = {
  support : float;
  partials : float array;
  iterations : int;
  log_likelihood : float;
}

(* EM for one size class: counts c_(l') of observed levels, transition
   matrix column-indexed by the true level. *)
let em_class (resolved : Randomizer.resolved) ~k ~max_iterations ~tolerance
    counts =
  let m = Array.length resolved.keep_dist - 1 in
  let levels = min k m + 1 in
  let p = Transition.rect_matrix resolved ~k in
  let n = Array.fold_left ( + ) 0 counts in
  let observed = Array.map float_of_int counts in
  (* uniform start strictly inside the simplex *)
  let s = Array.make levels (1. /. float_of_int levels) in
  let iterations = ref 0 and converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let next = Array.make levels 0. in
    for l' = 0 to k do
      if observed.(l') > 0. then begin
        let mix = ref 0. in
        for l = 0 to levels - 1 do
          mix := !mix +. (s.(l) *. Mat.get p l' l)
        done;
        if !mix > 0. then
          for l = 0 to levels - 1 do
            next.(l) <-
              next.(l)
              +. (observed.(l') *. s.(l) *. Mat.get p l' l /. !mix)
          done
      end
    done;
    let total = Array.fold_left ( +. ) 0. next in
    let delta = ref 0. in
    for l = 0 to levels - 1 do
      let v = if total > 0. then next.(l) /. total else s.(l) in
      delta := Float.max !delta (Float.abs (v -. s.(l)));
      s.(l) <- v
    done;
    if !delta < tolerance then converged := true
  done;
  let log_likelihood = ref 0. in
  for l' = 0 to k do
    if observed.(l') > 0. then begin
      let mix = ref 0. in
      for l = 0 to levels - 1 do
        mix := !mix +. (s.(l) *. Mat.get p l' l)
      done;
      log_likelihood := !log_likelihood +. (observed.(l') *. log (Float.max !mix 1e-300))
    end
  done;
  (* pad structural zeros for levels above the transaction size *)
  let partials = Array.make (k + 1) 0. in
  Array.blit s 0 partials 0 levels;
  (partials, n, !iterations, !log_likelihood)

let estimate ?(max_iterations = 10_000) ?(tolerance = 1e-10) ~scheme ~data
    ~itemset () =
  if Array.length data = 0 then invalid_arg "Em.estimate: empty data";
  let k = Itemset.cardinal itemset in
  let counts = Estimator.observed_partial_counts data ~itemset in
  let total =
    List.fold_left (fun acc (_, c) -> acc + Array.fold_left ( + ) 0 c) 0 counts
  in
  let partials = Array.make (k + 1) 0. in
  let iterations = ref 0 and log_likelihood = ref 0. in
  List.iter
    (fun (size, class_counts) ->
      let resolved = Randomizer.resolve scheme ~size in
      let class_partials, n, iters, ll =
        em_class resolved ~k ~max_iterations ~tolerance class_counts
      in
      let w = float_of_int n /. float_of_int total in
      for l = 0 to k do
        partials.(l) <- partials.(l) +. (w *. class_partials.(l))
      done;
      iterations := max !iterations iters;
      log_likelihood := !log_likelihood +. ll)
    counts;
  {
    support = partials.(k);
    partials;
    iterations = !iterations;
    log_likelihood = !log_likelihood;
  }
