open Ppdm_prng
open Ppdm_data
open Ppdm_linalg
open Ppdm

(* ------------------------------------------------- special functions *)

let erfc x =
  let z = Float.abs x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let poly =
    -.z *. z -. 1.26551223
    +. t
       *. (1.00002368
          +. t
             *. (0.37409196
                +. t
                   *. (0.09678418
                      +. t
                         *. (-0.18628806
                            +. t
                               *. (0.27886807
                                  +. t
                                     *. (-1.13520398
                                        +. t
                                           *. (1.48851587
                                              +. t
                                                 *. (-0.82215223
                                                    +. (t *. 0.17087277)))))))))
  in
  let ans = t *. exp poly in
  if x >= 0. then ans else 2. -. ans

let gammln x =
  let cof =
    [|
      76.18009172947146; -86.50532032941677; 24.01409824083091;
      -1.231739572450155; 0.1208650973866179e-2; -0.5395239384953e-5;
    |]
  in
  let tmp = x +. 5.5 in
  let tmp = tmp -. ((x +. 0.5) *. log tmp) in
  let ser = ref 1.000000000190015 in
  let y = ref x in
  for j = 0 to 5 do
    y := !y +. 1.;
    ser := !ser +. (cof.(j) /. !y)
  done;
  -.tmp +. log (2.5066282746310005 *. !ser /. x)

(* Regularized incomplete gamma P(a, x) by series (valid for x < a + 1). *)
let gamma_series a x =
  let gln = gammln a in
  let ap = ref a in
  let del = ref (1. /. a) in
  let sum = ref !del in
  (try
     for _ = 1 to 300 do
       ap := !ap +. 1.;
       del := !del *. x /. !ap;
       sum := !sum +. !del;
       if Float.abs !del < Float.abs !sum *. 1e-12 then raise Exit
     done
   with Exit -> ());
  !sum *. exp (-.x +. (a *. log x) -. gln)

(* Regularized incomplete gamma Q(a, x) by continued fraction (x >= a+1). *)
let gamma_cont_frac a x =
  let gln = gammln a in
  let fpmin = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (try
     for i = 1 to 300 do
       let an = -.float_of_int i *. (float_of_int i -. a) in
       b := !b +. 2.;
       d := (an *. !d) +. !b;
       if Float.abs !d < fpmin then d := fpmin;
       c := !b +. (an /. !c);
       if Float.abs !c < fpmin then c := fpmin;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < 1e-12 then raise Exit
     done
   with Exit -> ());
  exp (-.x +. (a *. log x) -. gln) *. !h

let reg_gamma_q a x =
  if x < 0. || a <= 0. then invalid_arg "Stat.reg_gamma_q";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_series a x
  else gamma_cont_frac a x

let chi_square_pvalue ~dof x =
  if dof <= 0 then invalid_arg "Stat.chi_square_pvalue: dof must be positive";
  if x <= 0. then 1. else reg_gamma_q (float_of_int dof /. 2.) (x /. 2.)

let z_pvalue z = erfc (Float.abs z /. sqrt 2.)

let chi_square_uniform counts =
  let buckets = Array.length counts in
  if buckets = 0 then invalid_arg "Stat.chi_square_uniform: no buckets";
  let total = Array.fold_left ( + ) 0 counts in
  let expected = float_of_int total /. float_of_int buckets in
  if expected <= 0. then invalid_arg "Stat.chi_square_uniform: empty sample";
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts

let chi_square_fit ~observed ~expected =
  let n = Array.length observed in
  if Array.length expected <> n then
    invalid_arg "Stat.chi_square_fit: length mismatch";
  (* Pool buckets left-to-right until each pooled cell has expected mass
     at least 5; the remainder folds into the last cell. *)
  let cells = ref [] in
  let obs_acc = ref 0. and exp_acc = ref 0. in
  for i = 0 to n - 1 do
    obs_acc := !obs_acc +. float_of_int observed.(i);
    exp_acc := !exp_acc +. expected.(i);
    if !exp_acc >= 5. then begin
      cells := (!obs_acc, !exp_acc) :: !cells;
      obs_acc := 0.;
      exp_acc := 0.
    end
  done;
  if !exp_acc > 0. || !obs_acc > 0. then begin
    match !cells with
    | (o, e) :: tl -> cells := (o +. !obs_acc, e +. !exp_acc) :: tl
    | [] -> cells := [ (!obs_acc, !exp_acc) ]
  end;
  let cells = List.rev !cells in
  match cells with
  | [] | [ _ ] -> 1.
  | _ ->
      if List.exists (fun (o, e) -> e <= 0. && o > 0.) cells then 0.
      else begin
        let stat =
          List.fold_left
            (fun acc (o, e) ->
              if e <= 0. then acc else acc +. (((o -. e) ** 2.) /. e))
            0. cells
        in
        chi_square_pvalue ~dof:(List.length cells - 1) stat
      end

(* ------------------------------------------------- transition validation *)

let transition_pvalue ?samples ~scheme ~size ~k ~l rng =
  let samples =
    match samples with Some s -> max 100 s | None -> Property.scaled ~base:20000
  in
  if k > size then invalid_arg "Stat.transition_pvalue: k must not exceed size";
  if l < 0 || l > min k size then
    invalid_arg "Stat.transition_pvalue: l outside [0, min k size]";
  let u = Randomizer.universe scheme in
  if u < size + (k - l) then
    invalid_arg "Stat.transition_pvalue: universe too small to embed t and A";
  let t = Itemset.of_list (List.init size Fun.id) in
  let a =
    Itemset.of_list
      (List.init l Fun.id @ List.init (k - l) (fun i -> size + i))
  in
  let p = Transition.of_scheme scheme ~size ~k in
  let expected =
    Array.init (k + 1) (fun l' -> float_of_int samples *. Mat.get p l' l)
  in
  let observed = Array.make (k + 1) 0 in
  for _ = 1 to samples do
    let y = Randomizer.apply scheme rng t in
    let l' = Itemset.inter_size y a in
    observed.(l') <- observed.(l') + 1
  done;
  chi_square_fit ~observed ~expected

(* ------------------------------------------------- amplification bound *)

let log_binom m a =
  gammln (float_of_int (m + 1))
  -. gammln (float_of_int (a + 1))
  -. gammln (float_of_int (m - a + 1))

(* Exact p(t -> y) of a select-a-size operator: keep exactly y cap t (a
   uniformly chosen |y cap t|-subset given the drawn keep size), insert
   exactly y \ t from the universe outside t. *)
let transition_prob (r : Randomizer.resolved) ~universe ~size t y =
  let a = Itemset.inter_size y t in
  let b = Itemset.cardinal y - a in
  let outside = universe - size in
  let pa = r.keep_dist.(a) in
  let rho = r.rho in
  if pa = 0. then 0.
  else if rho = 0. && b > 0 then 0.
  else if rho = 1. && b < outside then 0.
  else begin
    let log_rho_part =
      (if b = 0 then 0. else float_of_int b *. log rho)
      +.
      if outside - b = 0 then 0.
      else float_of_int (outside - b) *. log (1. -. rho)
    in
    exp (log pa -. log_binom size a +. log_rho_part)
  end

let random_subset rng ~universe ~card =
  let idx = Array.init universe Fun.id in
  for i = 0 to card - 1 do
    let j = Rng.int_in_range rng ~lo:i ~hi:(universe - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Itemset.of_array (Array.sub idx 0 card)

let amplification_check ?trials ~scheme ~size rng =
  let trials =
    match trials with Some t -> max 1 t | None -> Property.scaled ~base:300
  in
  let gamma = Amplification.gamma scheme ~size in
  if gamma = infinity then Ok ()
  else begin
    let universe = Randomizer.universe scheme in
    let r = Randomizer.resolve scheme ~size in
    let tolerance = 1. +. 1e-6 in
    let rec go trial =
      if trial >= trials then Ok ()
      else begin
        let t1 = random_subset rng ~universe ~card:size in
        let t2 = random_subset rng ~universe ~card:size in
        let y = random_subset rng ~universe ~card:(Rng.int rng (universe + 1)) in
        let p1 = transition_prob r ~universe ~size t1 y in
        let p2 = transition_prob r ~universe ~size t2 y in
        if p1 > gamma *. p2 *. tolerance || p2 > gamma *. p1 *. tolerance then
          Error
            (Printf.sprintf
               "amplification bound violated at trial %d: gamma=%.6g but \
                p(%s -> %s)=%.6g vs p(%s -> %s)=%.6g"
               trial gamma (Itemset.to_string t1) (Itemset.to_string y) p1
               (Itemset.to_string t2) (Itemset.to_string y) p2)
        else go (trial + 1)
      end
    in
    go 0
  end

(* ------------------------------------------------- estimator unbiasedness *)

let estimator_bias_pvalue ?trials ~scheme ~db ~itemset rng =
  let trials =
    match trials with Some t -> max 3 t | None -> Property.scaled ~base:60
  in
  let truth = Db.support db itemset in
  let ests =
    Array.init trials (fun i ->
        let child = Rng.derive rng ~index:i in
        let data = Draw.tagged scheme child db in
        (Estimator.estimate ~scheme ~data ~itemset).Estimator.support)
  in
  let mean = Stats.mean ests in
  let sd = Stats.std ests in
  if sd = 0. then if Float.abs (mean -. truth) < 1e-9 then 1. else 0.
  else z_pvalue ((mean -. truth) /. (sd /. sqrt (float_of_int trials)))

(* ------------------------------------------------- private miner sigma *)

(* Binomial-tail allowance: with [k] independent trials each missing with
   probability [alpha], allow up to mean + 3.1 sd misses (one-sided
   p ~ 1e-3), never fewer than 2. *)
let allowed_misses ~k ~alpha =
  let mu = alpha *. float_of_int k in
  let sd = sqrt (mu *. (1. -. alpha)) in
  max 2 (int_of_float (Float.ceil (mu +. (3.1 *. sd))))

let coverage_of_zs ~what ~z zs =
  let k = List.length zs in
  if k = 0 then Ok ()
  else begin
    let misses = List.length (List.filter (fun x -> Float.abs x > z) zs) in
    let allowed = allowed_misses ~k ~alpha:(z_pvalue z) in
    if misses <= allowed then Ok ()
    else
      Error
        (Printf.sprintf
           "%s: %d of %d runs fell outside %.2f sigma (allowed %d)" what
           misses k z allowed)
  end

(* Per trial: randomize afresh, mine privately up to pairs, and
   standardize one singleton's and one pair's estimate against the exact
   support by the σ the miner reported.  The probes rotate with the
   trial, and each list holds one z per independent randomization.  A
   probe the miner failed to explore counts as a miss. *)
let private_sigma_zs ~scheme ~db ~trials rng =
  let u = Db.universe db in
  let singles = ref [] and pairs = ref [] in
  for trial = 0 to trials - 1 do
    let reports = Draw.reports scheme (Rng.derive rng ~index:trial) db in
    let mined =
      Ppmining.mine_reports ~max_size:2 ~sigma_slack:10. ~sigma_cap:1. ~scheme
        ~reports ~min_support:0.01 ()
    in
    let z itemset =
      match
        List.find_opt
          (fun (d : Ppmining.discovery) -> Itemset.equal d.itemset itemset)
          mined.explored
      with
      | Some d when d.sigma > 0. ->
          (d.est_support -. Db.support db itemset) /. d.sigma
      | Some _ | None -> Float.infinity
    in
    let a = trial mod u in
    singles := z (Itemset.singleton a) :: !singles;
    pairs := z (Itemset.of_list [ a; (a + 1) mod u ]) :: !pairs
  done;
  (List.rev !singles, List.rev !pairs)

let private_sigma_coverage ~scheme ~db rng =
  let trials = Property.scaled ~base:40 in
  let singles, pairs = private_sigma_zs ~scheme ~db ~trials rng in
  let z = 1.959964 in
  match coverage_of_zs ~what:"private singleton sigma coverage" ~z singles with
  | Error _ as e -> e
  | Ok () -> coverage_of_zs ~what:"private pair sigma coverage" ~z pairs
