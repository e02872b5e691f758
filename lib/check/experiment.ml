open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm_linalg
open Ppdm

(* ------------------------------------------------------------------ T1 *)

type t1_row = { rho1 : float; rho2 : float; gamma_limit : float }

let t1_breach_limits () =
  let rho1s = [ 0.01; 0.02; 0.05; 0.1; 0.2 ] in
  let rho2s = [ 0.3; 0.5; 0.7; 0.9 ] in
  List.concat_map
    (fun rho1 ->
      List.filter_map
        (fun rho2 ->
          if rho2 > rho1 then
            Some { rho1; rho2; gamma_limit = Amplification.gamma_breach_limit ~rho1 ~rho2 }
          else None)
        rho2s)
    rho1s

(* ------------------------------------------------------------------ T2 *)

type t2_row = {
  cutoff : int;
  rho : float;
  size : int;
  kept_fraction : float;
  worst_posterior : float;
  gamma : float;
}

let t2_universe = 1000

let t2_cut_and_paste () =
  let sizes = [ 3; 5; 10 ] in
  let cutoffs = [ 1; 2; 3; 5 ] in
  let rhos = [ 0.05; 0.1; 0.2 ] in
  List.concat_map
    (fun size ->
      List.concat_map
        (fun cutoff ->
          List.map
            (fun rho ->
              let scheme = Randomizer.cut_and_paste ~universe:t2_universe ~cutoff ~rho in
              let resolved = Randomizer.resolve scheme ~size in
              {
                cutoff;
                rho;
                size;
                kept_fraction = Randomizer.expected_kept_fraction scheme ~size;
                worst_posterior = Breach.worst_item_posterior resolved ~prior:0.05;
                gamma = Amplification.gamma_resolved resolved;
              })
            rhos)
        cutoffs)
    sizes


(* Kept-item fraction of a designed distribution (utility readout). *)
let kept_fraction dist =
  let m = Array.length dist - 1 in
  if m = 0 then 1.
  else begin
    let acc = ref 0. in
    Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) dist;
    !acc /. float_of_int m
  end

(* ------------------------------------------------------------------ T3 *)

type t3_row = {
  size : int;
  gamma_budget : float;
  sas_rho : float;
  sas_kept : float;
  sas_posterior : float;
  cp_kept : float option;
  sigma_k1 : float;
  sigma_k2 : float;
  sigma_k3 : float;
}

let sigma_for resolved ~k =
  (* N = 100k transactions, 2% background item rate, 1% target support *)
  Estimator.predicted_sigma resolved ~k
    ~partials:(Estimator.binomial_profile ~k ~p_bg:0.02 ~support:0.01)
    ~n:100_000

let t3_operator_comparison () =
  let sizes = [ 3; 5; 10 ] in
  let gammas = [ 7.6; 19.; 49. ] in
  List.concat_map
    (fun size ->
      List.map
        (fun gamma_budget ->
          let d = Optimizer.design_for_estimation ~m:size ~gamma:gamma_budget () in
          let resolved : Randomizer.resolved =
            { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
          in
          let sas_posterior = Breach.worst_item_posterior resolved ~prior:0.05 in
          let cp_kept =
            Option.map
              (fun (cutoff, rho) ->
                Randomizer.expected_kept_fraction
                  (Randomizer.cut_and_paste ~universe:t2_universe ~cutoff ~rho)
                  ~size)
              (Optimizer.cut_and_paste_best ~universe:t2_universe ~m:size
                 ~worst_posterior:sas_posterior ~prior:0.05)
          in
          {
            size;
            gamma_budget;
            sas_rho = d.Optimizer.rho;
            sas_kept = kept_fraction d.Optimizer.dist;
            sas_posterior;
            cp_kept;
            sigma_k1 = sigma_for resolved ~k:1;
            sigma_k2 = sigma_for resolved ~k:2;
            sigma_k3 = (if size >= 3 then sigma_for resolved ~k:3 else Float.nan);
          })
        gammas)
    sizes

(* ------------------------------------------------------------------ F1 *)

type f1_point = { k : int; support : float; sigma : float }

let f1_sigma_vs_support () =
  let d = Optimizer.design_for_estimation ~m:5 ~gamma:19. () in
  let resolved : Randomizer.resolved =
    { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
  in
  let supports = [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.05 ] in
  List.concat_map
    (fun k ->
      List.map
        (fun support ->
          let sigma =
            Estimator.predicted_sigma resolved ~k
              ~partials:(Estimator.binomial_profile ~k ~p_bg:0.02 ~support)
              ~n:100_000
          in
          { k; support; sigma })
        supports)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ F2 *)

type f2_point = { size : int; k : int; gamma : float; discoverable : float }

let f2_discoverable_vs_gamma () =
  let gammas = [ 3.; 6.; 9.; 19.; 35.; 49.; 99. ] in
  List.concat_map
    (fun size ->
      List.concat_map
        (fun k ->
          List.map
            (fun gamma ->
              let d = Optimizer.design_for_estimation ~k ~m:size ~gamma () in
              let resolved : Randomizer.resolved =
                { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
              in
              let discoverable =
                Estimator.lowest_discoverable_support resolved ~k ~n:100_000
                  ~p_bg:0.02
              in
              { size; k; gamma; discoverable })
            gammas)
        (List.filter (fun k -> k <= size) [ 1; 2; 3 ]))
    [ 3; 5; 10 ]

(* ------------------------------------------------------------------ F3 *)

type f3_row = {
  k : int;
  support : float;
  predicted_sigma : float;
  empirical_sigma : float;
  mean_estimate : float;
  trials : int;
}

let f3_sigma_validation ?(trials = 24) ?(count = 20_000) () =
  let universe = 500 and size = 6 in
  let d = Optimizer.design_for_estimation ~m:size ~gamma:19. () in
  let scheme =
    Randomizer.select_a_size ~universe ~size ~keep_dist:d.Optimizer.dist
      ~rho:d.Optimizer.rho
  in
  let resolved = Randomizer.resolve scheme ~size in
  let cases = [ (1, 0.05); (2, 0.02); (3, 0.01) ] in
  List.map
    (fun (k, support) ->
      let itemset = Itemset.of_list (List.init k (fun i -> i * 7)) in
      let estimates = Array.make trials 0. in
      let predicted = ref 0. in
      for t = 0 to trials - 1 do
        let rng = Rng.create ~seed:(3000 + (100 * k) + t) () in
        let db = Simple.planted rng ~universe ~size ~count ~itemset ~support in
        if t = 0 then begin
          let truth = Db.partial_support_counts db itemset in
          let partials =
            Array.map (fun c -> float_of_int c /. float_of_int count) truth
          in
          predicted := Estimator.predicted_sigma resolved ~k ~partials ~n:count
        end;
        let data = Draw.tagged scheme rng db in
        let e = Estimator.estimate ~scheme ~data ~itemset in
        estimates.(t) <- e.Estimator.support
      done;
      {
        k;
        support;
        predicted_sigma = !predicted;
        empirical_sigma = Stats.std estimates;
        mean_estimate = Stats.mean estimates;
        trials;
      })
    cases

(* ------------------------------------------------------------------ F4 *)

type f4_row = {
  gamma_budget : float;
  min_support : float;
  true_frequent : int;
  true_positives : int;
  false_positives : int;
  false_drops : int;
}

let quest_cache : (int, Db.t) Hashtbl.t = Hashtbl.create 4

let quest_db ?(count = 100_000) () =
  match Hashtbl.find_opt quest_cache count with
  | Some db -> db
  | None ->
      let rng = Rng.create ~seed:424242 () in
      let db =
        Quest.generate rng
          {
            Quest.default with
            universe = 200;
            n_transactions = count;
            avg_transaction_size = 8.;
            n_patterns = 50;
          }
      in
      Hashtbl.replace quest_cache count db;
      db

(* One operator per occurring transaction size, all under the same gamma
   budget; see Optimizer.scheme_for_estimation. *)
let optimized_family ~universe ~gamma () =
  Optimizer.scheme_for_estimation ~universe ~gamma ()

let f4_mining_accuracy ?(count = 100_000) () =
  let db = quest_db ~count () in
  let universe = Db.universe db in
  let min_supports = [ 0.01; 0.02; 0.05 ] in
  let gammas = [ 9.; 19.; 49. ] in
  let truths =
    List.map
      (fun min_support -> (min_support, Apriori.mine db ~min_support ~max_size:3))
      min_supports
  in
  List.concat_map
    (fun gamma_budget ->
      let scheme = optimized_family ~universe ~gamma:gamma_budget () in
      let rng = Rng.create ~seed:(7000 + int_of_float gamma_budget) () in
      let reports = Draw.reports scheme rng db in
      List.map
        (fun min_support ->
          let truth = List.assoc min_support truths in
          let mined =
            Ppmining.mine_reports ~scheme ~reports ~min_support ~max_size:3 ()
          in
          let acc = Ppmining.accuracy_vs ~truth ~mined in
          {
            gamma_budget;
            min_support;
            true_frequent = List.length truth;
            true_positives = acc.Ppmining.true_positives;
            false_positives = acc.Ppmining.false_positives;
            false_drops = acc.Ppmining.false_drops;
          })
        min_supports)
    gammas

(* ------------------------------------------------------------------ A1 *)

type a1_row = {
  size : int;
  gamma : float;
  rr_epsilon : float;
  sas_sigma_k2 : float;
  rr_sigma_k2 : float;
  sas_kept : float;
  rr_kept : float;
}

let a1_rr_comparison () =
  let sigma_k2 resolved =
    Estimator.predicted_sigma resolved ~k:2
      ~partials:(Estimator.binomial_profile ~k:2 ~p_bg:0.02 ~support:0.01)
      ~n:100_000
  in
  List.concat_map
    (fun size ->
      List.map
        (fun gamma ->
          let d = Optimizer.design_for_estimation ~m:size ~gamma () in
          let sas : Randomizer.resolved =
            { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
          in
          let rr_epsilon = Ldp.rr_epsilon_for_gamma ~size ~gamma in
          let p = Ldp.rr_keep_probability ~epsilon_per_item:rr_epsilon in
          let rr_scheme =
            Randomizer.uniform ~universe:1000 ~p_keep:p ~p_add:(1. -. p)
          in
          let rr = Randomizer.resolve rr_scheme ~size in
          {
            size;
            gamma;
            rr_epsilon;
            sas_sigma_k2 = sigma_k2 sas;
            rr_sigma_k2 = sigma_k2 rr;
            sas_kept = kept_fraction d.Optimizer.dist;
            rr_kept = p;
          })
        [ 9.; 19.; 49. ])
    [ 5; 10 ]

(* ------------------------------------------------------------------ A2 *)

type a2_row = {
  sigma_slack : float;
  true_positives : int;
  false_positives : int;
  false_drops : int;
  explored : int;
}

let a2_slack_ablation ?(count = 100_000) () =
  let db = quest_db ~count () in
  let universe = Db.universe db in
  (* gamma = 49 keeps pair sigma inside the discoverable window at this
     sample size, so the knob actually engages *)
  let min_support = 0.05 and gamma = 49. in
  let scheme = optimized_family ~universe ~gamma () in
  let rng = Rng.create ~seed:515151 () in
  let reports = Draw.reports scheme rng db in
  let truth = Apriori.mine db ~min_support ~max_size:3 in
  List.map
    (fun sigma_slack ->
      let mined =
        Ppmining.mine_reports ~scheme ~reports ~min_support ~max_size:3
          ~sigma_slack ()
      in
      let acc = Ppmining.accuracy_vs ~truth ~mined in
      {
        sigma_slack;
        true_positives = acc.Ppmining.true_positives;
        false_positives = acc.Ppmining.false_positives;
        false_drops = acc.Ppmining.false_drops;
        explored = List.length mined.Ppmining.explored;
      })
    (* slack 3 is omitted: 3 sigma exceeds the threshold window at this
       privacy level, so the slackened test goes vacuous and exploration
       blows up combinatorially — the same regime the sigma cap guards *)
    [ 0.; 0.5; 1.; 2. ]

(* ------------------------------------------------------------------ A4 *)

type a4_row = {
  count : int;
  inv_rmse : float;
  em_rmse : float;
  inv_infeasible : int;
  trials : int;
}

let a4_inversion_vs_em ?(trials = 16) () =
  let universe = 200 and size = 5 and support = 0.1 in
  let itemset = Itemset.of_list [ 3; 11 ] in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:5 ~rho:0.05 in
  List.map
    (fun count ->
      let inv_err = Array.make trials 0. and em_err = Array.make trials 0. in
      let infeasible = ref 0 in
      for t = 0 to trials - 1 do
        let rng = Rng.create ~seed:(40_000 + (trials * count) + t) () in
        let db = Simple.planted rng ~universe ~size ~count ~itemset ~support in
        let truth = Db.support db itemset in
        let data = Draw.tagged scheme rng db in
        let inv = Estimator.estimate ~scheme ~data ~itemset in
        let em = Em.estimate ~scheme ~data ~itemset () in
        inv_err.(t) <- inv.Estimator.support -. truth;
        em_err.(t) <- em.Em.support -. truth;
        if
          Array.exists
            (fun v -> v < -1e-9 || v > 1. +. 1e-9)
            inv.Estimator.partials
        then incr infeasible
      done;
      let rmse errs =
        sqrt
          (Array.fold_left (fun acc e -> acc +. (e *. e)) 0. errs
          /. float_of_int trials)
      in
      {
        count;
        inv_rmse = rmse inv_err;
        em_rmse = rmse em_err;
        inv_infeasible = !infeasible;
        trials;
      })
    [ 100; 500; 2_000; 10_000 ]

(* ------------------------------------------------------------------ F5 *)

type f5_point = {
  prior : float;
  analytic_posterior : float;
  empirical_posterior : float;
  bound : float;
}

let f5_bound_validation ?(count = 8_000) () =
  let size = 5 and gamma = 19. in
  let d = Optimizer.design_for_estimation ~m:size ~gamma () in
  let resolved : Randomizer.resolved =
    { keep_dist = d.Optimizer.dist; rho = d.Optimizer.rho }
  in
  let realized = Amplification.gamma_resolved resolved in
  (* sweep the prior by varying the universe: fixed-size uniform data has
     item prior size/universe *)
  List.map
    (fun universe ->
      let prior = float_of_int size /. float_of_int universe in
      let scheme =
        Randomizer.select_a_size ~universe ~size ~keep_dist:d.Optimizer.dist
          ~rho:d.Optimizer.rho
      in
      let rng = Rng.create ~seed:(9000 + universe) () in
      let db = Simple.fixed_size rng ~universe ~size ~count in
      let randomized =
        Db.create ~universe (Array.map snd (Draw.tagged scheme rng db))
      in
      {
        prior;
        analytic_posterior = Breach.worst_item_posterior resolved ~prior;
        empirical_posterior =
          Breach.empirical_worst_item_posterior ~original:db ~randomized;
        bound = Amplification.posterior_upper_bound ~gamma:realized ~prior;
      })
    [ 500; 200; 100; 50; 25 ]

(* ------------------------------------------------------------------ E1 *)

type e1_row = {
  alpha : float;
  gamma : float;
  epsilon : float;
  posterior_bound : float;
  reconstruction_rmse : float;
}

let e1_channel_tradeoff ?(count = 30_000) () =
  let bins = 16 in
  (* a fixed bimodal population over the binned domain *)
  let rng0 = Rng.create ~seed:88_001 () in
  let values =
    Array.init count (fun i ->
        let v =
          if i mod 3 = 0 then Ppdm_prng.Dist.normal rng0 ~mean:11. ~std:1.5
          else Ppdm_prng.Dist.normal rng0 ~mean:5. ~std:1.2
        in
        max 0 (min (bins - 1) (int_of_float (Float.round v))))
  in
  let truth = Array.make bins 0. in
  Array.iter (fun x -> truth.(x) <- truth.(x) +. (1. /. float_of_int count)) values;
  List.map
    (fun target_gamma ->
      (* calibrate the decay so the realized gamma hits the target *)
      let alpha =
        let lo = ref 1e-6 and hi = ref (1. -. 1e-9) in
        for _ = 1 to 60 do
          let mid = 0.5 *. (!lo +. !hi) in
          if Channel.gamma (Channel.geometric_noise ~size:bins ~alpha:mid) > target_gamma
          then lo := mid
          else hi := mid
        done;
        0.5 *. (!lo +. !hi)
      in
      let channel = Channel.geometric_noise ~size:bins ~alpha in
      let gamma = Channel.gamma channel in
      let rng = Rng.create ~seed:(88_100 + int_of_float target_gamma) () in
      let counts = Array.make bins 0 in
      Array.iter
        (fun x ->
          let y = Channel.apply channel rng x in
          counts.(y) <- counts.(y) + 1)
        values;
      let recovered = Channel.estimate_em channel ~counts in
      {
        alpha;
        gamma;
        epsilon = log gamma;
        posterior_bound = Amplification.posterior_upper_bound ~gamma ~prior:0.05;
        reconstruction_rmse = Stats.rmse recovered truth;
      })
    [ 5.; 9.; 19.; 49.; 99. ]
