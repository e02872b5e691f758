open Ppdm_linalg

type objective =
  | Max_kept
  | Min_sigma of { k : int; n : int; p_bg : float; support : float }
  | Min_sigma_upto of { k_max : int; n : int; p_bg : float; support : float }

let log_g ~m ~rho j =
  Binomial.log_choose m j +. (float_of_int j *. (log rho -. log (1. -. rho)))

let validate ~m ~rho ~gamma =
  if m < 1 then invalid_arg "Optimizer: m must be >= 1";
  if rho <= 0. || rho >= 1. then invalid_arg "Optimizer: rho must be in (0,1)";
  if gamma < 1. then invalid_arg "Optimizer: gamma must be >= 1";
  (match gamma with
  | g when Float.is_nan g -> invalid_arg "Optimizer: gamma is NaN"
  | _ -> ())

(* One itemset size of a σ objective at one ρ: the transition-matrix
   basis and the profile, built once, and the matrix and σ scratch every
   vertex writes into. *)
type term = {
  basis : Transition.basis;
  partials : float array;
  p : float array;
  work : Estimator.scratch;
}

type kind = Kept | Sigma of { n : int; terms : term array }

type scorer = {
  m : int;
  log_gs : float array;  (** log g_j for j = 0..m *)
  log_gamma : float;
  dist : float array;  (** the keep distribution of the vertex last scored *)
  kind : kind;
}

let scorer ~m ~rho ~gamma objective =
  validate ~m ~rho ~gamma;
  let sigma ~n ~p_bg ~support ks =
    let term k =
      if k > m then invalid_arg "Optimizer: itemset size exceeds m";
      {
        basis = Transition.basis ~m ~rho ~k;
        partials = Estimator.binomial_profile ~k ~p_bg ~support;
        p = Array.make ((k + 1) * (k + 1)) 0.;
        work = Estimator.scratch ~k;
      }
    in
    Sigma { n; terms = Array.of_list (List.map term ks) }
  in
  let kind =
    match objective with
    | Max_kept -> Kept
    | Min_sigma { k; n; p_bg; support } -> sigma ~n ~p_bg ~support [ k ]
    | Min_sigma_upto { k_max; n; p_bg; support } ->
        sigma ~n ~p_bg ~support (List.init (min k_max m) (fun i -> i + 1))
  in
  {
    m;
    log_gs = Array.init (m + 1) (log_g ~m ~rho);
    log_gamma = log gamma;
    dist = Array.make (m + 1) 0.;
    kind;
  }

(* The normalized keep distribution of a vertex u ∈ {1, γ}^(m+1), through
   log-sum-exp so extreme m / rho combinations stay finite, written into
   [s.dist]. *)
let dist_of_vertex s high =
  let d = s.dist in
  for j = 0 to s.m do
    d.(j) <- s.log_gs.(j) +. if high.(j) then s.log_gamma else 0.
  done;
  let top = ref neg_infinity in
  for j = 0 to s.m do
    top := Float.max !top d.(j)
  done;
  let total = ref 0. in
  for j = 0 to s.m do
    d.(j) <- exp (d.(j) -. !top);
    total := !total +. d.(j)
  done;
  for j = 0 to s.m do
    d.(j) <- d.(j) /. !total
  done

(* Σ_k σ_k, each k's matrix one weighted sum of its basis.  An
   uninformative vertex (all u_j equal) has a singular transition matrix:
   infinite sigma, never optimal. *)
let[@inline] sigma_total ~n terms dist =
  let total = ref 0. in
  for i = 0 to Array.length terms - 1 do
    let t = terms.(i) in
    Transition.weighted_sum_into t.basis dist t.p;
    total :=
      !total
      +. Estimator.predicted_sigma_of_matrix t.work t.p ~partials:t.partials ~n
  done;
  !total

let score_vertex s high =
  dist_of_vertex s high;
  match s.kind with
  | Kept ->
      let acc = ref 0. in
      for j = 0 to s.m do
        acc := !acc +. (s.dist.(j) *. float_of_int j)
      done;
      !acc /. float_of_int s.m
  | Sigma { n; terms } -> (
      (* Negated so that "higher is better" holds for every objective. *)
      match sigma_total ~n terms s.dist with
      | total -> -.total
      | exception Lu.Singular -> neg_infinity)

(* The best vertex's keep distribution and its objective value.  The
   vertex arrays and the best distribution are the only storage, made
   once; a vertex copies into them only when it becomes the best. *)
let search ~m ~rho ~gamma objective =
  let s = scorer ~m ~rho ~gamma objective in
  let vertices = ref 0 in
  let high = Array.make (m + 1) false and start = Array.make (m + 1) false in
  let best_high = Array.make (m + 1) false and best_dist = Array.make (m + 1) 0. in
  let found = ref false and best_value = ref neg_infinity in
  let take value =
    Array.blit high 0 best_high 0 (m + 1);
    Array.blit s.dist 0 best_dist 0 (m + 1);
    best_value := value;
    found := true
  in
  let consider () =
    incr vertices;
    let value = score_vertex s high in
    if not (!found && !best_value >= value) then take value
  in
  (* All threshold vertices: u_j = γ exactly for j >= j*. *)
  for threshold = 0 to m + 1 do
    for j = 0 to m do
      high.(j) <- j >= threshold
    done;
    consider ()
  done;
  (match objective with
  | Max_kept -> () (* threshold vertices are provably optimal *)
  | (Min_sigma _ | Min_sigma_upto _) when m <= 8 ->
      (* Small sizes: the vertex set is tiny, enumerate it exactly. *)
      for mask = 0 to (1 lsl (m + 1)) - 1 do
        for j = 0 to m do
          high.(j) <- mask land (1 lsl j) <> 0
        done;
        consider ()
      done
  | Min_sigma _ | Min_sigma_upto _ ->
      (* Coordinate-flip descent from the best threshold vertex: every
         flip of the round's starting vertex is scored against the
         round's starting value, and the last one that beats it wins. *)
      let improved = ref true and rounds = ref 0 in
      while !improved && !rounds < 10 do
        improved := false;
        incr rounds;
        Array.blit best_high 0 start 0 (m + 1);
        let value = !best_value in
        for j = 0 to m do
          Array.blit start 0 high 0 (m + 1);
          high.(j) <- not high.(j);
          incr vertices;
          let v = score_vertex s high in
          if v > value +. 1e-15 then begin
            take v;
            improved := true
          end
        done
      done);
  Ppdm_obs.Metrics.add "optimizer.vertices" !vertices;
  (best_dist, !best_value)

let keep_dist ~m ~rho ~gamma objective = fst (search ~m ~rho ~gamma objective)

type design = {
  rho : float;
  dist : float array;
  value : float;
  gamma : float;
}

let default_rho_grid =
  Array.init 20 (fun i ->
      let t = float_of_int i /. 19. in
      exp (log 1e-3 +. (t *. (log 0.5 -. log 1e-3))))

let evaluate_rho ~m ~gamma objective rho =
  Ppdm_obs.Metrics.incr "optimizer.rho_evals";
  search ~m ~rho ~gamma objective

type runner = (unit -> float array * float) array -> (float array * float) array

let in_order tasks = Array.map (fun task -> task ()) tasks

(* The grid's ρ values are one batch of [run], each golden-section step's
   two another; every batch is reduced in index order, so the design is
   the same whichever domains ran the searches. *)
let design ?(rho_grid = default_rho_grid) ?(run = in_order) ~m ~gamma objective =
  if Array.length rho_grid = 0 then invalid_arg "Optimizer.design: empty grid";
  let evaluate rhos =
    run (Array.map (fun rho () -> evaluate_rho ~m ~gamma objective rho) rhos)
  in
  let best_rho = ref rho_grid.(0) and best_value = ref neg_infinity in
  let best_dist = ref [||] in
  Array.iteri
    (fun i (dist, value) ->
      if value > !best_value then begin
        best_value := value;
        best_rho := rho_grid.(i);
        best_dist := dist
      end)
    (evaluate rho_grid);
  (* Golden-section refinement on log rho around the best grid point. *)
  let lo = Float.max 1e-4 (!best_rho /. 3.) and hi = Float.min 0.5 (!best_rho *. 3.) in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let a = ref (log lo) and b = ref (log hi) in
  for _ = 1 to 14 do
    let x1 = !b -. (phi *. (!b -. !a)) and x2 = !a +. (phi *. (!b -. !a)) in
    let pair = evaluate [| exp x1; exp x2 |] in
    if snd pair.(0) > snd pair.(1) then b := x2 else a := x1
  done;
  let rho_refined = exp (0.5 *. (!a +. !b)) in
  let dist_refined, value_refined = evaluate_rho ~m ~gamma objective rho_refined in
  let rho, dist, value =
    if value_refined > !best_value then (rho_refined, dist_refined, value_refined)
    else (!best_rho, !best_dist, !best_value)
  in
  let realized =
    Amplification.gamma_resolved { keep_dist = dist; rho }
  in
  { rho; dist; value; gamma = realized }

let design_for_estimation ?k ?(n = 100_000) ?(p_bg = 0.02) ?(support = 0.01)
    ?run ~m ~gamma () =
  let k_max = min (Option.value k ~default:3) m in
  design ?run ~m ~gamma (Min_sigma_upto { k_max; n; p_bg; support })

let scheme_for_estimation ?k ?(n = 100_000) ?(p_bg = 0.02) ?(support = 0.01)
    ?(representative_size = 8) ?rho ?run ~universe ~gamma () =
  let name, shared_rho =
    match rho with
    | Some rho -> (Printf.sprintf "optimized-sas(gamma=%g,rho=%g)" gamma rho, rho)
    | None ->
        let rho =
          (design_for_estimation ?k ~n ~p_bg ~support ?run
             ~m:representative_size ~gamma ())
            .rho
        in
        (Printf.sprintf "optimized-sas(gamma=%g,rho=%.4g)" gamma rho, rho)
  in
  Randomizer.per_size ~universe ~name (fun m ->
      if m = 0 then { Randomizer.keep_dist = [| 1. |]; rho = shared_rho }
      else begin
        let objective =
          Min_sigma_upto
            { k_max = min (Option.value k ~default:3) m; n; p_bg; support }
        in
        {
          Randomizer.keep_dist = keep_dist ~m ~rho:shared_rho ~gamma objective;
          rho = shared_rho;
        }
      end)

let cut_and_paste_best ~universe ~m ~worst_posterior ~prior =
  if m < 1 then invalid_arg "Optimizer.cut_and_paste_best: m must be >= 1";
  let best = ref None in
  (* cutoffs beyond m still matter: they shift mass of min(U{0..K}, m)
     towards keeping the whole transaction *)
  for cutoff = 0 to 3 * m do
    Array.iter
      (fun rho ->
        let scheme = Randomizer.cut_and_paste ~universe ~cutoff ~rho in
        let resolved = Randomizer.resolve scheme ~size:m in
        let breach = Breach.worst_item_posterior resolved ~prior in
        if breach <= worst_posterior then begin
          let kept = Randomizer.expected_kept_fraction scheme ~size:m in
          match !best with
          | Some (_, _, k) when k >= kept -> ()
          | _ -> best := Some (cutoff, rho, kept)
        end)
      default_rho_grid
  done;
  Option.map (fun (cutoff, rho, _) -> (cutoff, rho)) !best
