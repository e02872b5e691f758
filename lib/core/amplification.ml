open Ppdm_linalg

let log_odds_ratio rho = log (1. -. rho) -. log rho

(* [f(a)] of the closed form: the size-independent part of
   [ln p(t → y)] as a function of [a = |t ∩ y|]. *)
let log_transition (r : Randomizer.resolved) ~intersection =
  let m = Array.length r.keep_dist - 1 in
  let p = r.keep_dist.(intersection) in
  if p <= 0. then neg_infinity
  else
    log p
    -. Binomial.log_choose m intersection
    +. (float_of_int intersection *. log_odds_ratio r.rho)

let gamma_resolved (r : Randomizer.resolved) =
  let m = Array.length r.keep_dist - 1 in
  if m = 0 then 1.
  else if r.rho <= 0. || r.rho >= 1. then infinity
  else begin
    let worst_hi = ref neg_infinity and worst_lo = ref infinity in
    for a = 0 to m do
      let f = log_transition r ~intersection:a in
      if f > !worst_hi then worst_hi := f;
      if f < !worst_lo then worst_lo := f
    done;
    if !worst_lo = neg_infinity then infinity else exp (!worst_hi -. !worst_lo)
  end

let gamma scheme ~size = gamma_resolved (Randomizer.resolve scheme ~size)

let gamma_breach_limit ~rho1 ~rho2 =
  if not (0. < rho1 && rho1 < rho2 && rho2 < 1.) then
    invalid_arg "Amplification.gamma_breach_limit: need 0 < rho1 < rho2 < 1";
  rho2 *. (1. -. rho1) /. (rho1 *. (1. -. rho2))

let posterior_upper_bound ~gamma ~prior =
  if prior < 0. || prior > 1. then
    invalid_arg "Amplification.posterior_upper_bound: prior out of [0,1]";
  if gamma = infinity then 1.
  else gamma *. prior /. (1. +. ((gamma -. 1.) *. prior))
