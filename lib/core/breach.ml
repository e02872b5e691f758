open Ppdm_data

let keep_probability (r : Randomizer.resolved) =
  let m = Array.length r.keep_dist - 1 in
  if m = 0 then 1.
  else begin
    let acc = ref 0. in
    Array.iteri
      (fun j p -> acc := !acc +. (p *. float_of_int j))
      r.keep_dist;
    !acc /. float_of_int m
  end

let check_prior prior =
  if prior < 0. || prior > 1. then invalid_arg "Breach: prior out of [0,1]"

(* Bayes over the two-channel observation "a in R(t)?": item present in t
   survives with the keep probability, item absent appears as noise with
   rate rho. *)
let item_posterior_present r ~prior =
  check_prior prior;
  let q_in = keep_probability r and q_out = r.rho in
  let num = prior *. q_in in
  let denom = num +. ((1. -. prior) *. q_out) in
  if denom <= 0. then 0. else num /. denom

let item_posterior_absent r ~prior =
  check_prior prior;
  let q_in = keep_probability r and q_out = r.rho in
  let num = prior *. (1. -. q_in) in
  let denom = num +. ((1. -. prior) *. (1. -. q_out)) in
  if denom <= 0. then 0. else num /. denom

let worst_item_posterior r ~prior =
  Float.max (item_posterior_present r ~prior) (item_posterior_absent r ~prior)

let empirical_item_posteriors ~original ~randomized ~item =
  if Db.length original <> Db.length randomized then
    invalid_arg "Breach.empirical_item_posteriors: database length mismatch";
  let in_both = ref 0 and in_rand = ref 0 in
  let in_orig_only = ref 0 and in_neither = ref 0 in
  Db.iteri
    (fun i tx ->
      let was = Itemset.mem item tx in
      let is = Itemset.mem item (Db.get randomized i) in
      match (was, is) with
      | true, true -> incr in_both
      | true, false -> incr in_orig_only
      | false, true -> incr in_rand
      | false, false -> incr in_neither)
    original;
  let present_total = !in_both + !in_rand in
  let absent_total = !in_orig_only + !in_neither in
  let present =
    if present_total = 0 then 0.
    else float_of_int !in_both /. float_of_int present_total
  in
  let absent =
    if absent_total = 0 then 0.
    else float_of_int !in_orig_only /. float_of_int absent_total
  in
  (present, absent)

let empirical_worst_item_posterior ~original ~randomized =
  let counts = Db.item_counts original in
  let worst = ref 0. in
  Array.iteri
    (fun item c ->
      if c > 0 then begin
        let present, absent =
          empirical_item_posteriors ~original ~randomized ~item
        in
        worst := Float.max !worst (Float.max present absent)
      end)
    counts;
  !worst
