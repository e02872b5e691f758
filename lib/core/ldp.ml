let rr_keep_probability ~epsilon_per_item =
  if epsilon_per_item < 0. then
    invalid_arg "Ldp.rr_keep_probability: negative epsilon";
  let e = exp epsilon_per_item in
  e /. (1. +. e)

let gamma_uniform ~size ~p_keep ~p_add =
  (* A dummy universe: amplification only depends on the per-size
     operator, not on the universe size. *)
  let scheme = Randomizer.uniform ~universe:(max 1 (3 * size)) ~p_keep ~p_add in
  Amplification.gamma scheme ~size

let rr_epsilon_for_gamma ~size ~gamma =
  if gamma <= 1. then invalid_arg "Ldp.rr_epsilon_for_gamma: gamma must be > 1";
  let gamma_at epsilon =
    let p = rr_keep_probability ~epsilon_per_item:epsilon in
    gamma_uniform ~size ~p_keep:p ~p_add:(1. -. p)
  in
  (* gamma_at is continuous and strictly increasing in epsilon (more truth
     per bit means sharper likelihood ratios); bisection suffices. *)
  let lo = ref 1e-9 and hi = ref 1. in
  while gamma_at !hi < gamma && !hi < 60. do
    hi := !hi *. 2.
  done;
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if gamma_at mid < gamma then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)
