open Ppdm_prng
open Ppdm_data
open Ppdm
open Ppdm_runtime

type outcome = { name : string; ok : bool; detail : string }
type report = { passed : int; failed : int; outcomes : outcome list }

let ok r = r.failed = 0

(* Adapt a Property result to the scenario shape. *)
let prop r =
  match r.Property.failure with
  | None -> Ok ()
  | Some _ -> Error (Property.describe r)

(* A database paired with a threshold: the input of every mining check. *)
let mining_case ~seed ~count =
  ignore seed;
  ignore count;
  Gen.pair (Gen.db ~max_universe:10 ~max_transactions:40 ()) Gen.min_support

let differential_check ~seed ~count pools =
  let miners =
    (("brute-force", fun db ~min_support ->
        Oracle.brute_force_frequent ~max_size:4 db ~min_support)
    :: Oracle.sequential_miners ~max_size:4 ())
    @ List.concat_map (Oracle.parallel_miners ~max_size:4) pools
  in
  prop
    (Property.check_result ~seed ~count ~name:"differential: all miners agree"
       (mining_case ~seed ~count)
       (fun (db, min_support) -> Oracle.agree ~miners db ~min_support))

let metamorphic_check ~seed ~count =
  let case =
    Gen.pair (mining_case ~seed ~count) (Gen.int_range 0 1_000_000)
  in
  let miners = Oracle.sequential_miners ~max_size:4 () in
  prop
    (Property.check_result ~seed ~count ~name:"metamorphic laws hold"
       case
       (fun ((db, min_support), key) ->
         let rng = Rng.create ~seed:key () in
         let u = Db.universe db in
         let perm =
           Gen.generate (Gen.permutation ~n:u) rng ~size:u
         in
         let pad = 1 + Rng.int rng 4 in
         let rec all = function
           | [] ->
               if Db.length db = 0 then Ok ()
               else
                 let index = Rng.int rng (Db.length db) in
                 let probes =
                   List.init 5 (fun i ->
                       Gen.generate (Gen.itemset ~universe:u)
                         (Rng.derive rng ~index:i) ~size:4)
                 in
                 Oracle.duplicate_scales db ~index ~probes
           | m :: rest -> (
               match Oracle.permutation_relabels m db ~min_support ~perm with
               | Error _ as e -> e
               | Ok () -> (
                   match Oracle.padding_noop m db ~min_support ~pad with
                   | Error _ as e -> e
                   | Ok () -> all rest))
         in
         all miners))

let estimator_reference_check ~seed ~count =
  let case =
    Gen.pair
      (Gen.fixed_size_db ~universe:8 ~card:4 ~max_transactions:30)
      (Gen.scheme ~universe:8)
  in
  let itemset = Itemset.of_list [ 0; 1 ] in
  prop
    (Property.check_result ~seed ~count:(max 10 (count / 2))
       ~name:"estimator matches the brute-force reference" case
       (fun (db, scheme) ->
         let rng = Rng.create ~seed:(Db.length db + seed) () in
         let data = Randomizer.apply_db_tagged scheme rng db in
         let reference =
           Oracle.brute_force_support_estimate ~scheme ~data ~itemset
         in
         let est = (Estimator.estimate ~scheme ~data ~itemset).Estimator.support in
         if Float.abs (est -. reference) <= 1e-6 *. Float.max 1. (Float.abs est)
         then Ok ()
         else
           Error
             (Printf.sprintf "estimate %.9f but brute-force reference %.9f" est
                reference)))

(* ------------------------------------------ estimator kernel differential *)

(* The library's σ kernel against the matrix route in Oracle, bit for bit:
   estimates from random per-class histograms (sizes 0..12, so classes
   smaller than k take the pseudo-inverse; some classes all zero; half
   the cases sampled out of a larger population), and predicted σ on the
   class matrices.  A class the library rejects as unrecoverable must be
   rejected by the reference too. *)
let estimator_kernel_differential ~seed ~count =
  let universe = 40 in
  let optimized =
    Optimizer.scheme_for_estimation ~rho:0.2 ~universe ~gamma:19. ()
  in
  let bits = Int64.bits_of_float in
  let same_float a b = Int64.equal (bits a) (bits b) in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception (Estimator.Unrecoverable _ as e) -> Error e
    | exception (Ppdm_linalg.Lu.Singular as e) -> Error e
  in
  let compare_outcomes ~what ~same ~show got want =
    match (outcome got, outcome want) with
    | Ok a, Ok b when same a b -> Ok ()
    | Error a, Error b when a = b -> Ok ()
    | a, b ->
        let show = function Ok v -> show v | Error e -> Printexc.to_string e in
        Error (Printf.sprintf "%s: kernel %s, matrix route %s" what (show a) (show b))
  in
  let same_estimate (a : Estimator.t) (b : Estimator.t) =
    same_float a.support b.support
    && same_float a.sigma b.sigma
    && Array.length a.partials = Array.length b.partials
    && Array.for_all2 same_float a.partials b.partials
    && a.n_transactions = b.n_transactions
    && a.n_population = b.n_population
  in
  prop
    (Property.check_result ~seed ~count:(max 300 (10 * count))
       ~name:"estimator kernel == matrix route, bit for bit"
       (Gen.int_range 0 1_000_000)
       (fun key ->
         let rng = Rng.create ~seed:key () in
         let scheme =
           match Rng.int rng 3 with
           | 0 ->
               Randomizer.uniform ~universe
                 ~p_keep:(0.3 +. (0.65 *. Rng.float rng))
                 ~p_add:(0.01 +. (0.3 *. Rng.float rng))
           | 1 ->
               Randomizer.cut_and_paste ~universe ~cutoff:(Rng.int rng 9)
                 ~rho:(0.01 +. (0.4 *. Rng.float rng))
           | _ -> optimized
         in
         let k = 1 + Rng.int rng 3 in
         let sizes =
           List.sort_uniq Int.compare (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng 13))
         in
         let counts =
           List.map
             (fun size ->
               ( size,
                 if Rng.int rng 5 = 0 then Array.make (k + 1) 0
                 else Array.init (k + 1) (fun _ -> Rng.int rng 60) ))
             sizes
         in
         let total =
           List.fold_left (fun acc (_, c) -> acc + Array.fold_left ( + ) 0 c) 0 counts
         in
         let population =
           if Rng.int rng 2 = 0 then None else Some (total + Rng.int rng 1000)
         in
         let estimate () =
           match population with
           | None -> Estimator.estimate_from_counts ~scheme ~k ~counts
           | Some population ->
               Estimator.estimate_from_counts_sampled ~population ~scheme ~k ~counts
         in
         let label =
           Printf.sprintf "%s k=%d classes %s%s" (Randomizer.name scheme) k
             (String.concat ","
                (List.map
                   (fun (size, c) ->
                     Printf.sprintf "%d:[%s]" size
                       (String.concat " " (Array.to_list (Array.map string_of_int c))))
                   counts))
             (match population with
             | None -> ""
             | Some p -> Printf.sprintf " population %d" p)
         in
         let m = k + Rng.int rng (13 - k) in
         let partials =
           Estimator.binomial_profile ~k ~p_bg:(0.3 *. Rng.float rng)
             ~support:(Rng.float rng)
         in
         let n = 1 + Rng.int rng 100_000 in
         let population_p =
           if Rng.int rng 2 = 0 then None else Some (n + Rng.int rng 100_000)
         in
         let p = Transition.matrix (Randomizer.resolve scheme ~size:m) ~k in
         if total = 0 then Ok ()
         else
           match
             compare_outcomes ~what:label ~same:same_estimate
               ~show:(fun (e : Estimator.t) ->
                 Printf.sprintf "support %h sigma %h partials [%s]" e.support e.sigma
                   (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") e.partials))))
               estimate (fun () ->
                 Oracle.reference_estimate ?population ~scheme ~k counts)
           with
           | Error _ as e -> e
           | Ok () ->
               compare_outcomes
                 ~what:
                   (Printf.sprintf "%s predicted sigma at m=%d n=%d"
                      (Randomizer.name scheme) m n)
                 ~same:same_float ~show:(Printf.sprintf "%h")
                 (fun () ->
                   Estimator.predicted_sigma_of_matrix ?population:population_p p
                     ~k ~partials ~n)
                 (fun () ->
                   Oracle.reference_predicted_sigma ?population:population_p p ~k
                     ~partials ~n)))

(* ------------------------------------------- private miner differential *)

(* Six hot items carry the patterns over a background universe.  Sizes
   run 0..8; three rows are empty and one row is the only member of its
   size class (12). *)
let private_case_db ~universe rng =
  Db.create ~universe
    (Array.init 240 (fun i ->
         if i < 3 then Itemset.empty
         else if i = 3 then
           Itemset.of_list (List.init 12 (fun j -> j * (universe / 12)))
         else
           Itemset.of_list
             (List.filter (fun _ -> Rng.float rng < 0.5) (List.init 6 Fun.id)
             @ List.init (Rng.int rng 3) (fun _ ->
                   6 + Rng.int rng (universe - 6)))))

(* Universes on both sides of 1024 (where the miner once switched pair
   tables), the three operator families, max_size 1..4: the class-windowed
   miner must explore exactly what per-candidate estimation explores.
   Levels do not depend on the cap, so the reference runs once, at 4, and
   is cut down for the smaller caps. *)
let private_miner_differential ~seed =
  let rng = Rng.create ~seed () in
  let cases =
    List.concat_map
      (fun universe ->
        let noise = 3. /. float_of_int universe in
        [
          ("cut-and-paste", Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:noise, 0.1);
          ("uniform", Randomizer.uniform ~universe ~p_keep:0.8 ~p_add:noise, 0.1);
          ( "optimized",
            (* A small design point keeps the operator search cheap.  At
               universe 1500, γ = 19 noise at 240 rows lets hundreds of
               background singletons through the slack, and the
               reference's per-candidate rescans of their pairs would
               dominate the suite; γ = 200 keeps it small. *)
            Optimizer.scheme_for_estimation ~k:2 ~representative_size:4
              ~universe
              ~gamma:(if universe > 1024 then 200. else 19.)
              (),
            0.4 );
        ]
        |> List.map (fun (name, scheme, min_support) ->
               (universe, name, scheme, min_support)))
      [ 60; 1500 ]
  in
  let sigma_slack = 2. and sigma_cap = 1. in
  let up_to max_size (r : Ppmining.result) =
    let keep (d : Ppmining.discovery) = Itemset.cardinal d.itemset <= max_size in
    { r with explored = List.filter keep r.explored }
  in
  let rec go = function
    | [] -> Ok ()
    | (universe, name, scheme, min_support) :: rest ->
        let db = private_case_db ~universe rng in
        let data = Randomizer.apply_db_tagged scheme rng db in
        let reference =
          Oracle.ppmining_reference ~max_size:4 ~sigma_slack ~sigma_cap ~scheme
            ~data ~min_support
        in
        let rec caps max_size =
          if max_size > 4 then go rest
          else
            let got =
              Ppmining.mine ~max_size ~sigma_slack ~sigma_cap ~scheme ~data
                ~min_support ()
            in
            match Oracle.same_explored ~got ~want:(up_to max_size reference) with
            | Ok () -> caps (max_size + 1)
            | Error e ->
                Error
                  (Printf.sprintf "universe %d, %s, max_size %d: %s" universe
                     name max_size e)
        in
        caps 1
  in
  go cases

(* ------------------------------------------------- report store differential *)

(* 124 rows of size 3 (a class of exactly two bitmap words), one row of
   size 12 (a one-row class), five empty rows and 1,000 rows of the other
   sizes up to 8, shuffled so every class is spread over every chunk.
   Half the rows draw from the first 40 items, so a wide universe holds
   dense items next to sparse ones. *)
let store_case_db ~universe rng =
  let draw size =
    let bound = if Rng.bool rng then min 40 universe else universe in
    Itemset.of_sorted_array_unchecked (Dist.sample_distinct rng ~k:size ~bound)
  in
  let others = [| 1; 2; 4; 5; 6; 7; 8 |] in
  let rows =
    Array.concat
      [
        Array.init 124 (fun _ -> draw 3);
        [| draw 12 |];
        Array.make 5 Itemset.empty;
        Array.init 1_000 (fun _ ->
            draw others.(Rng.int rng (Array.length others)));
      ]
  in
  for i = Array.length rows - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = rows.(i) in
    rows.(i) <- rows.(j);
    rows.(j) <- x
  done;
  Db.create ~universe rows

(* The store against the routes it replaced, at chunk sizes 1, 7, 64 and
   1024 and every pool: [rng] advances by one draw, [randomize_db_tagged]
   returns sequential [Randomizer.apply] over the chunks' derived
   children, and the store's freeze equals the regrouped, padded
   transpose of those rows in every window, shape and tid.  A tid names
   one row, so that equality pins every stored report too.  The
   operators cover a dense universe (optimized), a sparse one
   (cut-and-paste, rho = 0.001, universe 1500) and one that erases every
   report. *)
let report_store_differential ~seed pools =
  let rng = Rng.create ~seed () in
  let cases =
    [
      ( "optimized, universe 60",
        Optimizer.scheme_for_estimation ~k:2 ~representative_size:4
          ~universe:60 ~gamma:19. () );
      ( "cut-and-paste, universe 1500",
        Randomizer.cut_and_paste ~universe:1500 ~cutoff:5 ~rho:0.001 );
      ( "erasing, universe 60",
        Randomizer.uniform ~universe:60 ~p_keep:0. ~p_add:0. );
    ]
  in
  let same_rows a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun (s, y) (s', y') -> s = s' && Itemset.equal y y') a b
  in
  let check_case (name, scheme) chunk =
    let universe = Randomizer.universe scheme in
    let db = store_case_db ~universe rng in
    let key = Rng.int rng 1_000_000 in
    let seeded () = Rng.create ~seed:key () in
    let want =
      let parent = seeded () in
      let txs = Db.transactions db in
      let children =
        Array.init ((Array.length txs + chunk - 1) / chunk) (fun i ->
            Rng.derive parent ~index:i)
      in
      Array.mapi
        (fun r tx ->
          (Itemset.cardinal tx, Randomizer.apply scheme children.(r / chunk) tx))
        txs
    in
    let next_draw =
      let r = seeded () in
      ignore (Rng.bits64 r);
      Rng.bits64 r
    in
    let reference = Oracle.reference_transpose ~universe want in
    let rec pools_from = function
      | [] -> Ok ()
      | pool :: rest -> (
          let fail what =
            Error
              (Printf.sprintf "%s, chunk %d, jobs %d: %s" name chunk
                 (Pool.jobs pool) what)
          in
          let r = seeded () in
          let store = Parallel.randomize pool ~chunk scheme r db in
          if not (Int64.equal (Rng.bits64 r) next_draw) then
            fail "rng not advanced by one draw"
          else if
            not
              (same_rows
                 (Parallel.randomize_db_tagged pool ~chunk scheme (seeded ()) db)
                 want)
          then fail "randomize_db_tagged differs from sequential apply"
          else
            match
              Oracle.same_frozen ~got:(Reports.freeze store) ~want:reference
            with
            | Ok () -> pools_from rest
            | Error e -> fail e)
    in
    pools_from pools
  in
  let rec go = function
    | [] -> Ok ()
    | (case, chunk) :: rest -> (
        match check_case case chunk with Ok () -> go rest | Error _ as e -> e)
  in
  go
    (List.concat_map
       (fun case -> List.map (fun c -> (case, c)) [ 1; 7; 64; 1024 ])
       cases)

(* ------------------------------------------ operator design differential *)

let design_gammas = [ 3.; 9.; 19.; 50. ]

(* Basis-built matrices against the direct form, entry by entry; the
   vertex the optimizer picks against the one picked when every vertex
   is scored through the direct form; and, for [m <= design_max_m], the
   designed ρ against the reference design's.  The basis adds the direct
   form's products in its order, so all three must agree bit for bit. *)
let operator_design_differential ~max_m ~rhos ~design_max_m =
  let rec all f = function
    | [] -> Ok ()
    | c :: rest -> ( match f c with Ok () -> all f rest | Error _ as e -> e)
  in
  let cases =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun gamma -> List.map (fun rho -> (m, gamma, rho)) rhos)
          design_gammas)
      (List.init max_m (fun i -> i + 1))
  in
  let check_case (m, gamma, rho) =
    let label = Printf.sprintf "m=%d gamma=%g rho=%g" m gamma rho in
    let dist =
      Optimizer.keep_dist ~m ~rho ~gamma
        (Optimizer.Min_sigma_upto
           { k_max = min 3 m; n = 100_000; p_bg = 0.02; support = 0.01 })
    in
    let r = { Randomizer.keep_dist = dist; rho } in
    let same_matrix k =
      let diff =
        Ppdm_linalg.Mat.max_abs_diff (Transition.matrix r ~k)
          (Oracle.transition_matrix r ~k)
      in
      if diff = 0. then Ok ()
      else
        Error
          (Printf.sprintf "%s k=%d: basis P differs from the direct form by %g"
             label k diff)
    in
    match all same_matrix (List.init (min 3 m) (fun i -> i + 1)) with
    | Error _ as e -> e
    | Ok () ->
        if dist = Oracle.reference_keep_dist ~m ~rho ~gamma then Ok ()
        else Error (label ^ ": keep_dist picks a different vertex than the direct form")
  in
  let check_design (m, gamma) =
    let got = (Optimizer.design_for_estimation ~m ~gamma ()).rho in
    let want = Oracle.reference_design_rho ~m ~gamma in
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "m=%d gamma=%g: designed rho %.17g, reference %.17g" m
           gamma got want)
  in
  match all check_case cases with
  | Error _ as e -> e
  | Ok () ->
      all check_design
        (List.concat_map
           (fun m -> List.map (fun gamma -> (m, gamma)) design_gammas)
           (List.init design_max_m (fun i -> i + 1)))

let p_floor = 0.001

let transition_check ~rng () =
  let schemes =
    [
      ("uniform(0.7,0.1)", Randomizer.uniform ~universe:12 ~p_keep:0.7 ~p_add:0.1);
      ("cut-and-paste(3,0.2)", Randomizer.cut_and_paste ~universe:12 ~cutoff:3 ~rho:0.2);
    ]
  in
  let rec go = function
    | [] -> Ok ()
    | (label, scheme) :: rest ->
        let rec levels l =
          if l > 2 then Ok ()
          else
            let p = Stat.transition_pvalue ~scheme ~size:4 ~k:2 ~l rng in
            if p < p_floor then
              Error
                (Printf.sprintf
                   "%s: empirical apply deviates from the transition matrix \
                    at l=%d (chi-square p=%.2g < %.3f)"
                   label l p p_floor)
            else levels (l + 1)
        in
        (match levels 0 with Error _ as e -> e | Ok () -> go rest)
  in
  go schemes

let amplification_check_ ~rng () =
  let scheme = Randomizer.uniform ~universe:9 ~p_keep:0.6 ~p_add:0.2 in
  Stat.amplification_check ~scheme ~size:3 rng

let estimator_bias_check ~rng () =
  let scheme = Randomizer.uniform ~universe:8 ~p_keep:0.8 ~p_add:0.1 in
  let db =
    Db.create ~universe:8
      (Array.init 50 (fun i ->
           if i mod 2 = 0 then Itemset.of_list [ 0; 1; 3 ]
           else Itemset.of_list [ 1; 2 ]))
  in
  let itemset = Itemset.of_list [ 0; 1 ] in
  let p = Stat.estimator_bias_pvalue ~scheme ~db ~itemset rng in
  if p < p_floor then
    Error
      (Printf.sprintf "estimator bias z-test rejected (p=%.2g < %.3f)" p p_floor)
  else Ok ()

(* Mixed transaction sizes, so several size classes pool into every
   estimate the miner reports. *)
let private_sigma_check ~seed () =
  let rng = Rng.create ~seed:5678 () in
  let db =
    Db.create ~universe:8
      (Array.init 400 (fun _ ->
           Itemset.of_list
             (List.filter (fun _ -> Rng.float rng < 0.4) (List.init 8 Fun.id))))
  in
  let scheme = Randomizer.uniform ~universe:8 ~p_keep:0.8 ~p_add:0.1 in
  Stat.private_sigma_coverage ~scheme ~db (Rng.create ~seed:(seed + 31) ())

(* A database for the sampled-counting hypotheses: iid random transactions
   (so word-window cluster sampling has the same variance as uniform row
   sampling, which is what the FPC sigma predicts) and exactly 200 bitmap
   words — 50 windows, enough for the seeded selection to fluctuate. *)
let sampled_counting_db =
  let rng = Rng.create ~seed:1234 () in
  Db.create ~universe:8
    (Array.init (200 * 62) (fun _ ->
         Itemset.of_list
           (List.filter (fun _ -> Rng.float rng < 0.3) (List.init 8 Fun.id))))

let sampled_counts_check () =
  let itemset = Itemset.of_list [ 0; 1 ] in
  let p =
    Stat.sampled_counts_pvalue ~db:sampled_counting_db ~itemset ~fraction:0.25
      ()
  in
  if p < p_floor then
    Error
      (Printf.sprintf "sampled-vs-exact z-test rejected (p=%.2g < %.3f)" p
         p_floor)
  else Ok ()

let sampled_sigma_check () =
  let itemset = Itemset.of_list [ 0; 1 ] in
  Stat.sampled_sigma_coverage ~db:sampled_counting_db ~itemset ~fraction:0.25
    ()

let combined_sigma_check ~seed () =
  let scheme = Randomizer.uniform ~universe:8 ~p_keep:0.85 ~p_add:0.05 in
  let rng = Rng.create ~seed:4321 () in
  let db =
    Db.create ~universe:8
      (Array.init 400 (fun _ ->
           Itemset.of_list
             (List.filter (fun _ -> Rng.float rng < 0.35) (List.init 8 Fun.id))))
  in
  let itemset = Itemset.of_list [ 0; 1 ] in
  match
    Stat.combined_sigma_coverage ~scheme ~db ~itemset ~fraction:0.3
      (Rng.create ~seed:(seed + 23) ())
  with
  | Error _ as e -> e
  | Ok () ->
      let p =
        Stat.combined_sigma_pvalue ~scheme ~db ~itemset ~fraction:0.3
          (Rng.create ~seed:(seed + 24) ())
      in
      if p < p_floor then
        Error
          (Printf.sprintf "combined-sigma z-test rejected (p=%.2g < %.3f)" p
             p_floor)
      else Ok ()

(* ----------------------------------------------- parallel determinism *)

(* All 1- and 2-itemsets over the universe: a candidate batch wide enough
   to cut into several columns once [cand_chunk] is forced small. *)
let small_candidates u =
  let singles = List.init u Itemset.singleton in
  let pairs =
    List.concat_map
      (fun i ->
        List.init (u - i - 1) (fun j -> Itemset.of_list [ i; i + j + 1 ]))
      (List.init u Fun.id)
  in
  singles @ pairs

(* Randomized grid shapes: tiny word and candidate chunks cut a random
   database into many cells, and the pool at every job count must
   reproduce the sequential engine byte for byte. *)
let grid_identity_check ~seed ~count pools =
  let case =
    Gen.pair
      (Gen.db ~max_universe:10 ~max_transactions:40 ())
      (Gen.pair (Gen.int_range 1 4) (Gen.int_range 1 4))
  in
  prop
    (Property.check_result ~seed ~count
       ~name:"grid counts: parallel == sequential" case
       (fun (db, (word_chunk, cand_chunk)) ->
         let u = Db.universe db in
         if u = 0 then Ok ()
         else begin
           let candidates = small_candidates u in
           let vt = Ppdm_mining.Vertical.of_db db in
           let reference =
             Oracle.canonical
               (Ppdm_mining.Vertical.support_counts vt candidates)
           in
           let rec go = function
             | [] -> Ok ()
             | (label, counts) :: rest ->
                 let got = Oracle.canonical counts in
                 if String.equal got reference then go rest
                 else
                   Error
                     (Printf.sprintf "%s diverged\n  sequential: %s\n  %s: %s"
                        label reference label got)
           in
           go
             (List.map
                (fun pool ->
                  ( "j" ^ string_of_int (Pool.jobs pool),
                    Parallel.support_counts_vertical pool ~chunk:word_chunk
                      ~cand_chunk vt candidates ))
                pools)
         end))

(* Skewed cell costs: task i costs O(i^2), so later tasks finish long
   after earlier ones and completion order differs from task order — and
   the result array must still come back in task order, equal to a
   sequential evaluation. *)
let skewed_tasks_check pools =
  let n = 48 in
  let work i =
    let acc = ref 0 in
    for j = 1 to 1 + (i * i * 40) do
      acc := (!acc + (j * j)) land 0xFFFFFF
    done;
    (i, !acc)
  in
  let expected = Array.init n work in
  let rec go = function
    | [] -> Ok ()
    | (label, got) :: rest ->
        if got = expected then go rest
        else Error (label ^ " returned different results on skewed tasks")
  in
  go
    (List.map
       (fun pool ->
         ( "j" ^ string_of_int (Pool.jobs pool),
           Pool.run pool (Array.init n (fun i -> fun () -> work i)) ))
       pools)

(* ------------------------------------------------- kernel differential *)

(* Database widths hitting every dense-word boundary class: one short of
   a word, exactly a word, one past it, exactly two words, and a 4096-tid
   run spanning 67 words.  Items cover all-one words, all-zero words,
   alternating bits, window endpoints, a periodic pattern, and a
   genuinely sparse tail. *)
let kernel_widths = [ 61; 62; 63; 124; 4096 ]

let kernel_db n =
  Db.create ~universe:6
    (Array.init n (fun t ->
         Itemset.of_list
           (List.filter
              (fun item ->
                match item with
                | 0 -> true
                | 1 -> false
                | 2 -> t mod 2 = 0
                | 3 -> t = 0 || t = n - 1
                | 4 -> t mod 7 < 3
                | _ -> t mod 97 = 0)
              (List.init 6 Fun.id))))

(* The kernels must agree with the trie reference — on the full window,
   and window-by-window with the partials summed across a word boundary
   and the candidate columns concatenated — for every representation mix
   (adaptive, forced dense, forced sparse). *)
let kernel_differential_check () =
  let module V = Ppdm_mining.Vertical in
  let cands =
    small_candidates 6
    @ [ Itemset.of_list [ 0; 2; 4 ]; Itemset.of_list [ 2; 3; 4 ] ]
  in
  let check_one ~n ~rep_label ~dense_cutoff =
    let db = kernel_db n in
    let reference = Oracle.canonical (Count.support_counts db cands) in
    let vt = V.of_db ?dense_cutoff db in
    let label = Printf.sprintf "n=%d %s" n rep_label in
    let got = Oracle.canonical (V.support_counts vt cands) in
    if not (String.equal got reference) then
      Error
        (Printf.sprintf "%s: full count diverged from the trie\n  %s\n  %s"
           label reference got)
    else begin
      (* split on the first word boundary and mid-batch: windowed
         partials must sum and columns concatenate *)
      let prepared = V.prepare cands in
      let len = V.prepared_length prepared in
      let wc = V.word_count vt in
      let wsplit = min 1 wc and csplit = len / 2 in
      let piece ~word_lo ~word_hi ~cand_lo ~cand_hi =
        V.count_into vt ~word_lo ~word_hi ~cand_lo ~cand_hi prepared
      in
      let totals = Array.make len 0 in
      List.iter
        (fun (wlo, whi) ->
          List.iter
            (fun (clo, chi) ->
              let part =
                piece ~word_lo:wlo ~word_hi:whi ~cand_lo:clo ~cand_hi:chi
              in
              Array.iteri
                (fun i v -> totals.(clo + i) <- totals.(clo + i) + v)
                part)
            [ (0, csplit); (csplit, len) ])
        [ (0, wsplit); (wsplit, wc) ];
      let got_cells = Oracle.canonical (V.assemble prepared totals) in
      if String.equal got_cells reference then Ok ()
      else
        Error
          (Printf.sprintf "%s: 2-D cell sums diverged from the trie\n  %s\n  %s"
             label reference got_cells)
    end
  in
  let reps =
    [ ("adaptive", None); ("all-dense", Some 0.0); ("all-sparse", Some 2.0) ]
  in
  let rec widths = function
    | [] -> Ok ()
    | n :: rest ->
        let rec by_rep = function
          | [] -> widths rest
          | (rep_label, dense_cutoff) :: more -> (
              match check_one ~n ~rep_label ~dense_cutoff with
              | Error _ as e -> e
              | Ok () -> by_rep more)
        in
        by_rep reps
  in
  widths kernel_widths

let fuzz_roundtrip_checks ~seed ~count =
  let db_gen = Gen.db ~max_universe:12 ~max_transactions:20 () in
  let with_temp suffix content f =
    let path = Filename.temp_file "ppdm_selftest" suffix in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        content path;
        f path)
  in
  [
    ( "fuzz: Io write/read round-trip",
      fun () ->
        prop
          (Property.check_result ~seed ~count:(max 10 (count / 4))
             ~name:"Io round-trip" db_gen (fun db ->
               with_temp ".txt" (fun p -> Io.write_file p db) (fun p ->
                   let back = Io.read_file p in
                   if
                     Db.universe back = Db.universe db
                     && Array.for_all2 Itemset.equal (Db.transactions back)
                          (Db.transactions db)
                   then Ok ()
                   else Error "database changed across write/read"))) );
    ( "fuzz: FIMI write/read round-trip",
      fun () ->
        prop
          (Property.check_result ~seed ~count:(max 10 (count / 4))
             ~name:"FIMI round-trip" db_gen (fun db ->
               with_temp ".fimi" (fun p -> Io.write_fimi p db) (fun p ->
                   let back = Io.read_fimi ~universe:(Db.universe db) p in
                   if
                     Array.for_all2 Itemset.equal (Db.transactions back)
                       (Db.transactions db)
                   then Ok ()
                   else Error "transactions changed across FIMI write/read"))) );
    ( "fuzz: columnar convert/load round-trip",
      fun () ->
        prop
          (Property.check_result ~seed ~count:(max 10 (count / 4))
             ~name:"columnar round-trip" db_gen (fun db ->
               with_temp ".txt" (fun p -> Io.write_file p db) (fun src ->
                   with_temp ".ppdmc" (fun _ -> ()) (fun dst ->
                       ignore (Colfile.convert ~src ~dst ());
                       let cf = Colfile.open_file dst in
                       Fun.protect
                         ~finally:(fun () -> Colfile.close cf)
                         (fun () ->
                           let back =
                             Ppdm_mining.Vertical.to_db
                               (Ppdm_mining.Vertical.of_colfile cf)
                           in
                           if
                             Db.universe back = Db.universe db
                             && Array.for_all2 Itemset.equal
                                  (Db.transactions back) (Db.transactions db)
                           then Ok ()
                           else
                             Error
                               "database changed across convert/of_colfile")))))
    );
    ( "fuzz: columnar reader survives corruption",
      fun () ->
        (* deterministic single-byte corruption over a real PPDMC file:
           every position must surface as the typed Colfile.Error or decode
           to something structurally valid — never any other exception *)
        let db =
          Gen.generate db_gen (Rng.create ~seed:(seed + 7) ()) ~size:12
        in
        let read_all path =
          let cf = Colfile.open_file path in
          Fun.protect
            ~finally:(fun () -> Colfile.close cf)
            (fun () ->
              for item = 0 to Colfile.universe cf - 1 do
                ignore (Colfile.column cf item)
              done)
        in
        with_temp ".txt" (fun p -> Io.write_file p db) (fun src ->
            with_temp ".ppdmc" (fun _ -> ()) (fun dst ->
                ignore (Colfile.convert ~src ~dst ());
                let ic = open_in_bin dst in
                let good =
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () ->
                      really_input_string ic (in_channel_length ic))
                in
                let len = String.length good in
                let rec go pos =
                  if pos >= len then Ok ()
                  else begin
                    let bad = Bytes.of_string good in
                    Bytes.set bad pos
                      (Char.chr (Char.code good.[pos] lxor 0x55));
                    with_temp ".ppdmc"
                      (fun p ->
                        let oc = open_out_bin p in
                        output_bytes oc bad;
                        close_out oc)
                      (fun p ->
                        match read_all p with
                        | () -> go (pos + 1)
                        | exception Colfile.Error _ -> go (pos + 1)
                        | exception e ->
                            Error
                              (Printf.sprintf
                                 "flipping byte %d of %d leaked %s" pos len
                                 (Printexc.to_string e)))
                  end
                in
                go 0)) );
    ( "fuzz: Scheme_io write/read round-trip",
      fun () ->
        prop
          (Property.check_result ~seed ~count:(max 10 (count / 4))
             ~name:"Scheme_io round-trip"
             (Gen.pair db_gen (Gen.int_range 0 1_000_000))
             (fun (db, key) ->
               let scheme =
                 (* serialization is per-universe; build over the db's *)
                 Gen.generate
                   (Gen.scheme ~universe:(Db.universe db))
                   (Rng.create ~seed:key ())
                   ~size:4
               in
               let sizes = Scheme_io.sizes_of_db db in
               if sizes = [] then Ok ()
               else
                 with_temp ".scheme"
                   (fun p -> Scheme_io.write_file p scheme ~sizes)
                   (fun p ->
                     let back = Scheme_io.read_file p in
                     if Randomizer.same_parameters scheme back ~sizes then
                       Ok ()
                     else Error "scheme parameters changed across write/read")))
    );
    ( "fuzz: parsers survive garbage",
      fun () ->
        let survives reader content =
          let path = Filename.temp_file "ppdm_selftest" ".fuzz" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              let oc = open_out path in
              output_string oc content;
              close_out oc;
              match reader path with
              | _ -> true
              | exception Failure _ -> true
              | exception Invalid_argument _ -> true
              | exception Colfile.Error _ -> true
              | exception _ -> false)
        in
        prop
          (Property.check_result ~seed ~count:(max 20 (count / 2))
             ~name:"parsers survive garbage" Gen.garbage_string (fun s ->
               if
                 survives Io.read_file s
                 && survives (fun p -> Io.read_fimi p) s
                 && survives
                      (fun p ->
                        try ignore (Io.read_tagged p)
                        with Io.Item_out_of_universe _ -> ())
                      s
                 && survives Scheme_io.read_file s
                 && survives
                      (fun p ->
                        let cf = Colfile.open_file p in
                        Colfile.close cf)
                      s
               then Ok ()
               else Error "a parser leaked an undocumented exception")) );
  ]

let run ?count ?(seed = 42) ?(log = ignore) () =
  let count =
    match count with Some c -> max 1 c | None -> Property.default_count ()
  in
  let rng = Rng.create ~seed () in
  let pool1 = Pool.create ~jobs:1 in
  let pool2 = Pool.create ~jobs:2 in
  let pool4 = Pool.create ~jobs:4 in
  let pool8 = Pool.create ~jobs:8 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool1;
      Pool.shutdown pool2;
      Pool.shutdown pool4;
      Pool.shutdown pool8)
    (fun () ->
      let pools = [ pool1; pool2; pool4 ] in
      let wide_pools = pools @ [ pool8 ] in
      let checks =
        [
          ( "generators: randomizer closed over generated inputs",
            fun () ->
              prop
                (Property.check_result ~seed ~count
                   ~name:"generated schemes randomize generated databases"
                   (Gen.pair
                      (Gen.db ~max_universe:10 ~max_transactions:20 ())
                      (Gen.int_range 0 1_000_000))
                   (fun (db, key) ->
                     let u = Db.universe db in
                     let rng = Rng.create ~seed:key () in
                     let scheme =
                       Gen.generate (Gen.scheme ~universe:u) rng ~size:4
                     in
                     let out = Randomizer.apply_db scheme rng db in
                     if
                       Db.length out = Db.length db
                       && Db.fold
                            (fun acc tx ->
                              acc
                              && Itemset.fold
                                   (fun i acc -> acc && i >= 0 && i < u)
                                   tx true)
                            true out
                     then Ok ()
                     else Error "randomized output escaped the universe")) );
          ( "differential: apriori trie+vertical/eclat/fp-growth/parallel at \
             jobs 1/2/4",
            fun () -> differential_check ~seed ~count pools );
          ("metamorphic: duplicate/permute/pad laws", fun () ->
              metamorphic_check ~seed ~count);
          ( "differential: private miner == per-candidate reference, bit \
             for bit",
            fun () -> private_miner_differential ~seed );
          ( "differential: report store == sequential apply and regrouped \
             transpose at jobs 1/2/4",
            fun () -> report_store_differential ~seed pools );
          ( "differential: estimator kernel == matrix route, bit for bit",
            fun () -> estimator_kernel_differential ~seed ~count );
          ( "differential: estimator vs brute-force reference",
            fun () -> estimator_reference_check ~seed ~count );
          ( "differential: operator design on the basis == direct form",
            (* The direct form allocates on every entry, and the idle
               pools above make each minor collection a stop-the-world
               across their domains: the full grid (the unit test's)
               costs ~8 s here, so only deep runs take it. *)
            fun () ->
              if count >= 1000 then
                operator_design_differential ~max_m:12
                  ~rhos:[ 0.02; 0.1; 0.3 ] ~design_max_m:6
              else
                operator_design_differential ~max_m:12 ~rhos:[ 0.1 ]
                  ~design_max_m:3 );
          ("statistical: apply matches transition matrix (chi-square)", fun () ->
              transition_check ~rng ());
          ("statistical: amplification bound on sampled pairs", fun () ->
              amplification_check_ ~rng ());
          ("statistical: estimator unbiasedness (z-test)", fun () ->
              estimator_bias_check ~rng ());
          ("statistical: private singleton and pair sigma coverage", fun () ->
              private_sigma_check ~seed ());
          ("statistical: sampled counts unbiased vs exact (z-test)", fun () ->
              sampled_counts_check ());
          ("statistical: sampled sigma covers |sampled - exact|", fun () ->
              sampled_sigma_check ());
          ("statistical: combined sigma honest on sampled recovery", fun () ->
              combined_sigma_check ~seed ());
          ( "pool: parallel == sequential on random grids at jobs 1/2/4/8",
            fun () -> grid_identity_check ~seed ~count wide_pools );
          ("pool: parallel == sequential on skewed cell costs", fun () ->
              skewed_tasks_check wide_pools);
          ("kernels: vertical == trie on every width class", fun () ->
              kernel_differential_check ());
          ("fault: pool task failure propagates, pool survives", fun () ->
              Fault.pool_error_propagates ~jobs:4 ~k:3 ~n:16);
          ("fault: sequential pool degrades identically", fun () ->
              Fault.pool_error_propagates ~jobs:1 ~k:0 ~n:4);
          ("fault: map_reduce returns nothing partial", fun () ->
              Fault.map_reduce_fault_no_partial ~jobs:2);
          ("fault: truncated read rejected", fun () ->
              Fault.io_truncated_read_rejected ());
          ("fault: truncated header rejected", fun () ->
              Fault.io_truncated_header_rejected ());
          ("fault: FIMI truncation silent (documented asymmetry)", fun () ->
              Fault.io_fimi_truncation_is_silent ());
          ( "differential: loopback server equals sequential fold at jobs \
             1/2/4",
            fun () ->
              let rng = Rng.create ~seed:(seed + 17) () in
              let db =
                Db.create ~universe:12
                  (Array.init 150 (fun i ->
                       Itemset.of_list [ i mod 12; ((i * 7) + 3) mod 12 ]))
              in
              let scheme =
                Randomizer.uniform ~universe:12 ~p_keep:0.75 ~p_add:0.08
              in
              let data = Randomizer.apply_db_tagged scheme rng db in
              let itemsets = [ Itemset.of_list [ 0; 1 ]; Itemset.of_list [ 3 ] ] in
              let rec configs = function
                | [] -> Ok ()
                | (jobs, shards) :: rest -> (
                    match
                      Oracle.server_matches_sequential ~jobs ~shards ~clients:3
                        ~scheme ~itemsets ~data
                    with
                    | Error _ as e -> e
                    | Ok () -> configs rest)
              in
              configs [ (1, 1); (2, 2); (4, 3) ] );
          ("fault: server rejects oversized frame, keeps serving", fun () ->
              Fault.server_oversized_frame_rejected ());
          ("fault: server rejects malformed frame length", fun () ->
              Fault.server_malformed_length_rejected ());
          ("fault: server tolerates truncated frame", fun () ->
              Fault.server_truncated_frame_tolerated ());
          ("fault: server survives mid-session disconnect, loses nothing",
            fun () -> Fault.server_mid_session_disconnect ());
          ("fault: server rejects scheme mismatch at handshake", fun () ->
              Fault.server_scheme_mismatch_rejected ());
          ("fault: server rejects invalid reports, session continues",
            fun () -> Fault.server_invalid_reports_rejected ());
          ("fault: client refuses oversized send, server untouched",
            fun () -> Fault.client_oversized_send_rejected ());
          ("fault: admin plane rejects garbage request, data plane identical",
            fun () -> Fault.admin_garbage_request_rejected ());
          ("fault: admin plane rejects oversized request, data plane identical",
            fun () -> Fault.admin_oversized_request_rejected ());
          ("fault: metrics scrape races shutdown cleanly", fun () ->
              Fault.admin_scrape_racing_shutdown ());
          ("fault: sampler ticks during quiesce, estimates bit-identical",
            fun () -> Fault.admin_sampler_during_quiesce ());
        ]
        @ fuzz_roundtrip_checks ~seed ~count
      in
      let outcomes =
        List.map
          (fun (name, check) ->
            let ok, detail =
              match check () with
              | Ok () -> (true, "")
              | Error d -> (false, d)
              | exception e -> (false, "raised " ^ Printexc.to_string e)
            in
            log
              (if ok then Printf.sprintf "ok   %s" name
               else Printf.sprintf "FAIL %s\n     %s" name
                   (String.concat "\n     " (String.split_on_char '\n' detail)));
            { name; ok; detail })
          checks
      in
      let passed = List.length (List.filter (fun o -> o.ok) outcomes) in
      { passed; failed = List.length outcomes - passed; outcomes })
