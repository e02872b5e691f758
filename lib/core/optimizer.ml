open Ppdm_linalg

type objective =
  | Max_kept
  | Min_sigma of { k : int; n : int; p_bg : float; support : float }
  | Min_sigma_upto of { k_max : int; n : int; p_bg : float; support : float }

let log_g ~m ~rho j =
  Binomial.log_choose m j +. (float_of_int j *. (log rho -. log (1. -. rho)))

(* Normalized keep distribution from a vertex u ∈ {1, γ}^(m+1), computed
   through log-sum-exp so extreme m / rho combinations stay finite.
   [log_gs] holds log g_j for j = 0..m. *)
let dist_of_vertex ~log_gs ~log_gamma high =
  let logs =
    Array.mapi (fun j lg -> lg +. if high.(j) then log_gamma else 0.) log_gs
  in
  let top = Array.fold_left Float.max neg_infinity logs in
  let unnorm = Array.map (fun l -> exp (l -. top)) logs in
  let total = Array.fold_left ( +. ) 0. unnorm in
  Array.map (fun v -> v /. total) unnorm

(* Σ_k σ_k for the given itemset sizes.  The transition-matrix basis of
   each k is built once per ρ; every vertex is then one weighted sum per
   k.  An uninformative vertex (all u_j equal) has a singular transition
   matrix: infinite sigma, never optimal. *)
let sigma_scorer ~m ~rho ~n ~p_bg ~support ks =
  let terms =
    List.map
      (fun k ->
        if k > m then invalid_arg "Optimizer: itemset size exceeds m";
        ( k,
          Transition.basis ~m ~rho ~k,
          Estimator.binomial_profile ~k ~p_bg ~support ))
      ks
  in
  fun dist ->
    match
      List.fold_left
        (fun acc (k, basis, partials) ->
          acc
          +. Estimator.predicted_sigma_of_matrix
               (Transition.weighted_sum basis dist)
               ~k ~partials ~n)
        0. terms
    with
    (* Negated so that "higher is better" holds for every objective. *)
    | total -> -.total
    | exception Lu.Singular -> neg_infinity

(* Build the scoring closure once per (rho, objective): the bases and
   profiles are shared by every vertex evaluation. *)
let make_scorer ~m ~rho objective =
  match objective with
  | Max_kept ->
      fun dist ->
        let acc = ref 0. in
        Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) dist;
        !acc /. float_of_int m
  | Min_sigma { k; n; p_bg; support } ->
      sigma_scorer ~m ~rho ~n ~p_bg ~support [ k ]
  | Min_sigma_upto { k_max; n; p_bg; support } ->
      sigma_scorer ~m ~rho ~n ~p_bg ~support
        (List.init (min k_max m) (fun i -> i + 1))

let validate ~m ~rho ~gamma =
  if m < 1 then invalid_arg "Optimizer: m must be >= 1";
  if rho <= 0. || rho >= 1. then invalid_arg "Optimizer: rho must be in (0,1)";
  if gamma < 1. then invalid_arg "Optimizer: gamma must be >= 1";
  (match gamma with
  | g when Float.is_nan g -> invalid_arg "Optimizer: gamma is NaN"
  | _ -> ())

(* The best vertex's keep distribution and its objective value. *)
let search ~m ~rho ~gamma objective =
  validate ~m ~rho ~gamma;
  let scorer = make_scorer ~m ~rho objective in
  let log_gs = Array.init (m + 1) (log_g ~m ~rho) and log_gamma = log gamma in
  let vertices = ref 0 in
  let score high =
    incr vertices;
    let dist = dist_of_vertex ~log_gs ~log_gamma high in
    (dist, scorer dist)
  in
  let best = ref None in
  let consider high =
    let dist, value = score high in
    match !best with
    | Some (_, v) when v >= value -> ()
    | _ -> best := Some ((Array.copy high, dist), value)
  in
  (* All threshold vertices: u_j = γ exactly for j >= j*. *)
  for threshold = 0 to m + 1 do
    consider (Array.init (m + 1) (fun j -> j >= threshold))
  done;
  (match objective with
  | Max_kept -> () (* threshold vertices are provably optimal *)
  | (Min_sigma _ | Min_sigma_upto _) when m <= 8 ->
      (* Small sizes: the vertex set is tiny, enumerate it exactly. *)
      for mask = 0 to (1 lsl (m + 1)) - 1 do
        consider (Array.init (m + 1) (fun j -> mask land (1 lsl j) <> 0))
      done
  | Min_sigma _ | Min_sigma_upto _ ->
      (* Coordinate-flip descent from the best threshold vertex. *)
      let improved = ref true and rounds = ref 0 in
      while !improved && !rounds < 10 do
        improved := false;
        incr rounds;
        let (high, _), value = Option.get !best in
        for j = 0 to m do
          let candidate = Array.copy high in
          candidate.(j) <- not candidate.(j);
          let dist, v = score candidate in
          if v > value +. 1e-15 then begin
            best := Some ((candidate, dist), v);
            improved := true
          end
        done
      done);
  Ppdm_obs.Metrics.add "optimizer.vertices" !vertices;
  let (_, dist), value = Option.get !best in
  (dist, value)

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

let design ?(rho_grid = default_rho_grid) ~m ~gamma objective =
  if Array.length rho_grid = 0 then invalid_arg "Optimizer.design: empty grid";
  let best_rho = ref rho_grid.(0) and best_value = ref neg_infinity in
  let best_dist = ref [||] in
  Array.iter
    (fun rho ->
      let dist, value = evaluate_rho ~m ~gamma objective rho in
      if value > !best_value then begin
        best_value := value;
        best_rho := rho;
        best_dist := dist
      end)
    rho_grid;
  (* Golden-section refinement on log rho around the best grid point. *)
  let lo = Float.max 1e-4 (!best_rho /. 3.) and hi = Float.min 0.5 (!best_rho *. 3.) in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let a = ref (log lo) and b = ref (log hi) in
  for _ = 1 to 14 do
    let x1 = !b -. (phi *. (!b -. !a)) and x2 = !a +. (phi *. (!b -. !a)) in
    let _, v1 = evaluate_rho ~m ~gamma objective (exp x1) in
    let _, v2 = evaluate_rho ~m ~gamma objective (exp x2) in
    if v1 > v2 then b := x2 else a := x1
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
    ~m ~gamma () =
  let k_max = min (Option.value k ~default:3) m in
  design ~m ~gamma (Min_sigma_upto { k_max; n; p_bg; support })

let scheme_for_estimation ?k ?(n = 100_000) ?(p_bg = 0.02) ?(support = 0.01)
    ?(representative_size = 8) ?rho ~universe ~gamma () =
  let name, shared_rho =
    match rho with
    | Some rho -> (Printf.sprintf "optimized-sas(gamma=%g,rho=%g)" gamma rho, rho)
    | None ->
        let rho =
          (design_for_estimation ?k ~n ~p_bg ~support ~m:representative_size
             ~gamma ())
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
