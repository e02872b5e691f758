open Ppdm_data
open Ppdm_linalg

type t = {
  support : float;
  partials : float array;
  sigma : float;
  covariance : Mat.t;
  n_transactions : int;
  n_population : int;
}

type by_size = (int, int array) Hashtbl.t

let size_slot by_size ~k size =
  match Hashtbl.find_opt by_size size with
  | Some counts -> counts
  | None ->
      let counts = Array.make (k + 1) 0 in
      Hashtbl.replace by_size size counts;
      counts

(* Sort on the size key alone: polymorphic compare would descend into the
   histogram arrays (sizes are unique, so the key determines the order). *)
let sorted_by_size by_size =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun size c acc -> (size, c) :: acc) by_size [])

let observed_partial_counts data ~itemset =
  let k = Itemset.cardinal itemset in
  let by_size = Hashtbl.create 8 in
  Array.iter
    (fun (size, y) ->
      let counts = size_slot by_size ~k size in
      let l' = Itemset.inter_size itemset y in
      counts.(l') <- counts.(l') + 1)
    data;
  sorted_by_size by_size

(* Conditional covariance of the observed fraction vector given the true
   database: the randomization is the only noise source (the paper
   conditions on the data), so
   Cov(s') = (1/N) Σ_l s_l (diag(p_l) - p_l p_lᵀ)
   with p_l the l-th column of the transition matrix.  Negative estimated
   partials are clamped; an exact operator (identity) yields zero. *)
let conditional_cov p partials n =
  let rows = Mat.rows p and cols = Mat.cols p in
  let cov = Array.make (rows * rows) 0. in
  for l = 0 to cols - 1 do
    let w = Float.max 0. partials.(l) /. float_of_int n in
    if w > 0. then begin
      let col = Mat.col p l in
      for i = 0 to rows - 1 do
        for j = 0 to rows - 1 do
          let v = if i = j then col.(i) *. (1. -. col.(i)) else -.(col.(i) *. col.(j)) in
          cov.((i * rows) + j) <- cov.((i * rows) + j) +. (w *. v)
        done
      done
    end
  done;
  Mat.of_flat ~rows ~cols:rows cov

(* One size class's transition matrix, factorized once: P, its inverse
   (or, when m < k, the normal-equation pseudo-inverse) and the number of
   realizable columns.  A singular P, or one whose condition number
   passes 1e12, carries no recoverable signal: it is rejected here, on
   every route to an estimate. *)
type class_solver = { p : Mat.t; pinv : Mat.t; cols : int }

let class_solver scheme ~size ~k =
  Ppdm_obs.Metrics.incr "estimator.solves";
  Ppdm_obs.Metrics.time "estimator.solve_ns" @@ fun () ->
  let resolved = Randomizer.resolve scheme ~size in
  let cols = min k (Array.length resolved.keep_dist - 1) + 1 in
  let p = Transition.rect_matrix resolved ~k in
  let unrecoverable () =
    invalid_arg
      (Printf.sprintf
         "Estimator: size class %d is unrecoverable at k = %d (singular \
          transition matrix)"
         size k)
  in
  match
    if cols = k + 1 then Lu.inverse (Lu.decompose p)
    else begin
      let pt = Mat.transpose p in
      Lu.solve_mat (Lu.decompose (Mat.mul pt p)) pt
    end
  with
  | pinv ->
      let cond = Mat.norm_inf p *. Mat.norm_inf pinv in
      if Ppdm_obs.Metrics.enabled () then
        Ppdm_obs.Metrics.gauge
          (Printf.sprintf "estimator.cond.s%d.k%d" size k)
          cond;
      if cond <= 1e12 then { p; pinv; cols } else unrecoverable ()
  | exception Lu.Singular -> unrecoverable ()

(* The class-conditional partial supports and their covariance.  Square
   case inverts P; the rectangular case (m < k) conjugates by the
   pseudo-inverse. *)
let estimate_class { p; pinv; cols } ~k counts =
  let n = Array.fold_left ( + ) 0 counts in
  (* n = 0 would divide the observed fractions by zero and propagate NaN
     through partials, covariance, and sigma. *)
  if n = 0 then invalid_arg "Estimator.estimate_class: empty size class";
  let observed =
    Array.map (fun c -> float_of_int c /. float_of_int n) counts
  in
  let short = Mat.mul_vec pinv observed in
  let cov_obs = conditional_cov p short n in
  let cov_short = Mat.mul pinv (Mat.mul cov_obs (Mat.transpose pinv)) in
  (* Pad with structural zeros: s_l = 0 exactly for l > m. *)
  let partials = Array.make (k + 1) 0. in
  Array.blit short 0 partials 0 cols;
  let covariance =
    Mat.init ~rows:(k + 1) ~cols:(k + 1) (fun i j ->
        if i < cols && j < cols then Mat.get cov_short i j else 0.)
  in
  (partials, covariance, n)

(* Each size class's solver is built by the first estimate that needs it
   and shared by the rest of the batch. *)
let class_solvers scheme ~k =
  let by_size = Hashtbl.create 16 in
  fun size ->
    match Hashtbl.find_opt by_size size with
    | Some s -> s
    | None ->
        let s = class_solver scheme ~size ~k in
        Hashtbl.replace by_size size s;
        s

(* Covariance contributed by counting on a uniform sample of [n]
   transactions drawn without replacement from a population of
   [population]: the sample's true partial-support vector fluctuates
   around the population's with (finite-population-corrected) multinomial
   covariance, and that noise passes into the recovered partials
   unattenuated (it perturbs the target itself, not the observation
   channel).  Plug-in [partials] are clamped to [0, 1]; a full count
   ([population = n]) contributes exactly zero. *)
let sampling_covariance ~partials ~n ~population =
  if n <= 0 then invalid_arg "Estimator.sampling_covariance: n must be positive";
  if population < n then
    invalid_arg "Estimator.sampling_covariance: population smaller than sample";
  let dim = Array.length partials in
  let cov = Mat.create ~rows:dim ~cols:dim in
  if population > n then begin
    let s = Array.map (fun v -> Float.max 0. (Float.min 1. v)) partials in
    let fpc =
      float_of_int (population - n) /. float_of_int (population - 1)
    in
    let w = fpc /. float_of_int n in
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        let v = if i = j then s.(i) *. (1. -. s.(i)) else -.(s.(i) *. s.(j)) in
        Mat.set cov i j (w *. v)
      done
    done
  end;
  cov

let sampling_sigma ~support ~n ~population =
  sqrt
    (Float.max 0.
       (Mat.get (sampling_covariance ~partials:[| support |] ~n ~population) 0 0))

(* Every estimate goes through here: pool the per-class solves with their
   class weights, in the order the groups are given. *)
let pool ~population ~k solver groups =
  let total =
    List.fold_left
      (fun acc (_, c) -> acc + Array.fold_left ( + ) 0 c)
      0 groups
  in
  if total = 0 then invalid_arg "Estimator.estimate_from_counts: empty counts";
  List.iter
    (fun (_, c) ->
      if Array.length c <> k + 1 then
        invalid_arg "Estimator.estimate_from_counts: count vector length")
    groups;
  let population = Option.value population ~default:total in
  if population < total then
    invalid_arg "Estimator.estimate_from_counts: population smaller than sample";
  (* An all-zero size class carries no observations; estimate_class would
     divide by n = 0 and poison everything downstream with NaN. *)
  let groups = List.filter (fun (_, c) -> Array.exists (( <> ) 0) c) groups in
  let partials = Array.make (k + 1) 0. in
  let covariance = Mat.create ~rows:(k + 1) ~cols:(k + 1) in
  List.iter
    (fun (size, counts) ->
      let class_partials, class_cov, n =
        estimate_class (solver size) ~k counts
      in
      let w = float_of_int n /. float_of_int total in
      for l = 0 to k do
        partials.(l) <- partials.(l) +. (w *. class_partials.(l));
        for l2 = 0 to k do
          Mat.set covariance l l2
            (Mat.get covariance l l2 +. (w *. w *. Mat.get class_cov l l2))
        done
      done)
    groups;
  (* Counting on a sample composes a second, independent noise source:
     randomization noise (above, conditional on the sampled rows) plus
     the sampling fluctuation of the rows themselves. *)
  if population > total then begin
    let extra = sampling_covariance ~partials ~n:total ~population in
    for l = 0 to k do
      for l2 = 0 to k do
        Mat.set covariance l l2 (Mat.get covariance l l2 +. Mat.get extra l l2)
      done
    done
  end;
  {
    support = partials.(k);
    partials;
    sigma = sqrt (Float.max 0. (Mat.get covariance k k));
    covariance;
    n_transactions = total;
    n_population = population;
  }

let for_batch ~scheme ~k =
  let solver = class_solvers scheme ~k in
  fun counts -> pool ~population:None ~k solver counts

let estimate_from_counts_gen ~population ~scheme ~k ~counts =
  Ppdm_obs.Span.with_ ~name:"estimator.estimate" @@ fun () ->
  pool ~population ~k (class_solvers scheme ~k) counts

let estimate_from_counts ~scheme ~k ~counts =
  estimate_from_counts_gen ~population:None ~scheme ~k ~counts

let estimate_from_counts_sampled ~population ~scheme ~k ~counts =
  estimate_from_counts_gen ~population:(Some population) ~scheme ~k ~counts

let estimate_gen ~population ~scheme ~data ~itemset =
  if Array.length data = 0 then invalid_arg "Estimator.estimate: empty data";
  let k = Itemset.cardinal itemset in
  let counts = observed_partial_counts data ~itemset in
  estimate_from_counts_gen ~population ~scheme ~k ~counts

let estimate ~scheme ~data ~itemset =
  estimate_gen ~population:None ~scheme ~data ~itemset

let estimate_sampled ~population ~scheme ~data ~itemset =
  estimate_gen ~population:(Some population) ~scheme ~data ~itemset

let predicted_sigma_of_matrix ?population p ~k ~partials ~n =
  if Mat.rows p <> k + 1 || Mat.cols p <> k + 1 then
    invalid_arg "Estimator.predicted_sigma: P must be (k+1) x (k+1)";
  if Array.length partials <> k + 1 then
    invalid_arg "Estimator.predicted_sigma: partials must have length k+1";
  if n <= 0 then invalid_arg "Estimator.predicted_sigma: n must be positive";
  let population = Option.value population ~default:n in
  if population < n then
    invalid_arg "Estimator.predicted_sigma: population smaller than sample";
  let cov_obs = conditional_cov p partials n in
  let pinv = Lu.inverse (Lu.decompose p) in
  let cov = Mat.mul pinv (Mat.mul cov_obs (Mat.transpose pinv)) in
  let sampling =
    if population > n then
      Mat.get (sampling_covariance ~partials ~n ~population) k k
    else 0.
  in
  sqrt (Float.max 0. (Mat.get cov k k +. sampling))

let predicted_sigma ?population (resolved : Randomizer.resolved) ~k ~partials
    ~n =
  let m = Array.length resolved.keep_dist - 1 in
  if k > m then invalid_arg "Estimator.predicted_sigma: k exceeds size";
  predicted_sigma_of_matrix ?population (Transition.matrix resolved ~k)
    ~k ~partials ~n

let confidence_interval t ~level =
  if not (level > 0. && level < 1.) then
    invalid_arg "Estimator.confidence_interval: level must be in (0,1)";
  let z = Stats.normal_quantile (0.5 +. (level /. 2.)) in
  let clamp x = Float.max 0. (Float.min 1. x) in
  (clamp (t.support -. (z *. t.sigma)), clamp (t.support +. (z *. t.sigma)))

let binomial_profile ~k ~p_bg ~support =
  if support < 0. || support > 1. then
    invalid_arg "Estimator.binomial_profile: support out of [0,1]";
  if p_bg < 0. || p_bg > 1. then
    invalid_arg "Estimator.binomial_profile: p_bg out of [0,1]";
  let raw = Array.init (k + 1) (Binomial.binomial_pmf ~n:k ~p:p_bg) in
  let below = Array.fold_left ( +. ) 0. (Array.sub raw 0 k) in
  let profile = Array.make (k + 1) 0. in
  if below > 0. then
    for l = 0 to k - 1 do
      profile.(l) <- raw.(l) *. (1. -. support) /. below
    done
  else profile.(0) <- 1. -. support;
  profile.(k) <- support;
  profile

let lowest_discoverable_support ?population resolved ~k ~n ~p_bg =
  let sigma_at s =
    predicted_sigma ?population resolved ~k
      ~partials:(binomial_profile ~k ~p_bg ~support:s)
      ~n
  in
  (* σ(s) is continuous and nearly flat while s/2 grows linearly, so the
     sign of g(s) = σ(s) - s/2 changes at most once; bisection applies. *)
  let g s = sigma_at s -. (s /. 2.) in
  if g 1. > 0. then 1.
  else begin
    let lo = ref 1e-9 and hi = ref 1. in
    if g !lo <= 0. then !lo
    else begin
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if g mid > 0. then lo := mid else hi := mid
      done;
      !hi
    end
  end
