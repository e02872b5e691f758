open Ppdm_data
open Ppdm_linalg

type t = {
  support : float;
  partials : float array;
  sigma : float;
  n_transactions : int;
}

(* The statistic's one layout: the histogram of |y ∩ A| for original size
   s at [counts.(s (k+1) ..)], as long as the largest size present. *)
let count_by_size data ~itemset =
  let dim = Itemset.cardinal itemset + 1 in
  let top = Array.fold_left (fun m (size, _) -> max m size) (-1) data in
  let counts = Array.make ((top + 1) * dim) 0 in
  Array.iter
    (fun (size, y) ->
      let i = (size * dim) + Itemset.inter_size itemset y in
      counts.(i) <- counts.(i) + 1)
    data;
  counts

let observed_sizes ~k counts =
  List.filter
    (fun s -> Array.exists (( <> ) 0) (Array.sub counts (s * (k + 1)) (k + 1)))
    (List.init (Array.length counts / (k + 1)) Fun.id)

let observed_partial_counts data ~itemset =
  let k = Itemset.cardinal itemset and counts = count_by_size data ~itemset in
  List.map
    (fun s -> (s, Array.sub counts (s * (k + 1)) (k + 1)))
    (observed_sizes ~k counts)

exception Unrecoverable of { size : int; k : int }

(* The (k, k) entry of P⁻¹ Cov(ŝ') P⁻ᵀ for a square (k+1) × (k+1) P, given
   row-major in [p], with row k of P⁻¹ at [pinv.(row) ..].  Cov(ŝ') is the
   covariance of the observed fraction vector given the true database:
   the randomization is the only noise source (the paper conditions on
   the data), so
   Cov(s') = (1/N) Σ_l s_l (diag(p_l) - p_l p_lᵀ)
   with p_l the l-th column of P.  Negative estimated partials are
   clamped; an exact operator (identity) yields zero.

   Only the entry is formed, yet it is bit for bit the (k, k) entry of
   [P⁻¹ (Cov P⁻ᵀ)] built with [Mat.mul]: each Cov(i, j) is the same sum
   over l in the same order, and both products add their terms in the
   same order and skip the same zero factors.  [w] (length k+1) is
   scratch for the class weights s_l / N; nothing is allocated.  Callers
   pass [p] with dim² entries and [pinv] with a row at [row], so the
   inner loops skip the bounds check. *)
let[@inline] conjugated_kk ~dim ~p ~pinv ~row ~partials ~n ~w =
  for l = 0 to dim - 1 do
    w.(l) <- Float.max 0. partials.(l) /. float_of_int n
  done;
  let acc = ref 0. in
  for i = 0 to dim - 1 do
    let a = Array.unsafe_get pinv (row + i) in
    if a <> 0. then begin
      (* (Cov P⁻ᵀ)(i, k) *)
      let t = ref 0. in
      for j = 0 to dim - 1 do
        let c = ref 0. in
        for l = 0 to dim - 1 do
          let wl = Array.unsafe_get w l in
          if wl > 0. then begin
            let pi = Array.unsafe_get p ((i * dim) + l) in
            let v =
              if i = j then pi *. (1. -. pi)
              else -.(pi *. Array.unsafe_get p ((j * dim) + l))
            in
            c := !c +. (wl *. v)
          end
        done;
        if !c <> 0. then t := !t +. (!c *. Array.unsafe_get pinv (row + j))
      done;
      acc := !acc +. (a *. !t)
    end
  done;
  !acc

(* One size class's transition matrix, factorized once: P ((k+1) × cols,
   row-major), its inverse (or, when m < k, the normal-equation
   pseudo-inverse; cols × (k+1)) and the number of realizable columns.  A
   singular P, or one whose condition number passes 1e12, carries no
   recoverable signal: it is rejected here, on every route to an
   estimate. *)
type class_solver = { cols : int; p : float array; pinv : float array }

let class_solver scheme ~size ~k =
  Ppdm_obs.Metrics.incr "estimator.solves";
  Ppdm_obs.Metrics.time "estimator.solve_ns" @@ fun () ->
  let resolved = Randomizer.resolve scheme ~size in
  let cols = min k (Array.length resolved.keep_dist - 1) + 1 in
  let p = Transition.rect_matrix resolved ~k in
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
      if cond <= 1e12 then { cols; p = Mat.flat p; pinv = Mat.flat pinv }
      else raise (Unrecoverable { size; k })
  | exception Lu.Singular -> raise (Unrecoverable { size; k })

type batch = {
  k : int;
  sizes : int array;
  solvers : class_solver array;
  short : float array;  (** one class's partials, P⁺ · observed *)
  w : float array;  (** their weights in Cov(ŝ') *)
}

let batch ~scheme ~k sizes =
  {
    k;
    sizes;
    solvers = Array.map (fun size -> class_solver scheme ~size ~k) sizes;
    short = Array.make (k + 1) 0.;
    w = Array.make (k + 1) 0.;
  }

(* Every estimate goes through here.  The class of size s is read at
   [counts.(s (k+1) ..)]; each is solved into [b.short], and its partials
   and its σ² entry are pooled with the class weight, in batch order.  A
   rectangular class (m < k) has s_l = 0 exactly for l > m, so its
   partials are padded with zeros and its (k, k) entry is 0. *)
let pooled b counts =
  let k = b.k and dim = b.k + 1 in
  let total = Array.fold_left ( + ) 0 counts in
  let partials = Array.make dim 0. and var = ref 0. in
  for c = 0 to Array.length b.solvers - 1 do
    let { cols; p; pinv } = b.solvers.(c) and off = b.sizes.(c) * dim in
    let n = ref 0 in
    for l = 0 to k do
      n := !n + counts.(off + l)
    done;
    let n = !n in
    (* n = 0 would divide the observed fractions by zero and propagate NaN
       through partials and sigma. *)
    if n = 0 then invalid_arg "Estimator: empty size class";
    let nf = float_of_int n in
    for r = 0 to cols - 1 do
      let acc = ref 0. in
      for l = 0 to k do
        acc :=
          !acc +. (pinv.((r * dim) + l) *. (float_of_int counts.(off + l) /. nf))
      done;
      b.short.(r) <- !acc
    done;
    let class_var =
      if cols = dim then
        conjugated_kk ~dim ~p ~pinv ~row:(k * dim) ~partials:b.short ~n
          ~w:b.w
      else 0.
    in
    let w = nf /. float_of_int total in
    for l = 0 to k do
      let s = if l < cols then b.short.(l) else 0. in
      partials.(l) <- partials.(l) +. (w *. s)
    done;
    var := !var +. (w *. w *. class_var)
  done;
  {
    support = partials.(k);
    partials;
    sigma = sqrt (Float.max 0. !var);
    n_transactions = total;
  }

let estimate_by_size ~scheme ~k counts =
  Ppdm_obs.Span.with_ ~name:"estimator.estimate" @@ fun () ->
  match observed_sizes ~k counts with
  | [] -> invalid_arg "Estimator: empty counts"
  | sizes -> pooled (batch ~scheme ~k (Array.of_list sizes)) counts

let estimate_from_counts ~scheme ~k ~counts =
  let dim = k + 1 in
  let top = List.fold_left (fun m (size, _) -> max m size) 0 counts in
  let layout = Array.make ((top + 1) * dim) 0 in
  List.iter
    (fun (size, c) ->
      if size < 0 || Array.length c <> dim then
        invalid_arg "Estimator.estimate_from_counts: bad size or count vector";
      Array.blit c 0 layout (size * dim) dim)
    counts;
  estimate_by_size ~scheme ~k layout

let estimate ~scheme ~data ~itemset =
  if Array.length data = 0 then invalid_arg "Estimator.estimate: empty data";
  let count () = count_by_size data ~itemset in
  let counts = Ppdm_obs.Span.with_ ~name:"estimator.count" count in
  estimate_by_size ~scheme ~k:(Itemset.cardinal itemset) counts

type scratch = { lu : Lu.t; row : float array; w : float array }

let scratch ~k =
  if k < 0 then invalid_arg "Estimator.scratch: negative k";
  {
    lu = Lu.create (k + 1);
    row = Array.make (k + 1) 0.;
    w = Array.make (k + 1) 0.;
  }

let predicted_sigma_of_matrix s p ~partials ~n =
  let dim = Array.length s.row in
  if Array.length p <> dim * dim then
    invalid_arg "Estimator.predicted_sigma: P must be (k+1) x (k+1)";
  if Array.length partials <> dim then
    invalid_arg "Estimator.predicted_sigma: partials must have length k+1";
  if n <= 0 then invalid_arg "Estimator.predicted_sigma: n must be positive";
  Lu.factor s.lu p;
  Lu.inverse_last_row s.lu s.row;
  let var = conjugated_kk ~dim ~p ~pinv:s.row ~row:0 ~partials ~n ~w:s.w in
  sqrt (Float.max 0. var)

let predicted_sigma (resolved : Randomizer.resolved) ~k ~partials ~n =
  let m = Array.length resolved.keep_dist - 1 in
  if k > m then invalid_arg "Estimator.predicted_sigma: k exceeds size";
  try
    predicted_sigma_of_matrix (scratch ~k)
      (Mat.flat (Transition.matrix resolved ~k))
      ~partials ~n
  with Lu.Singular -> raise (Unrecoverable { size = m; k })

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

let lowest_discoverable_support resolved ~k ~n ~p_bg =
  let sigma_at s =
    predicted_sigma resolved ~k
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
