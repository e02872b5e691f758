open Ppdm_data
open Ppdm_linalg
open Ppdm_mining
open Ppdm

type miner = string * (Db.t -> min_support:float -> (Itemset.t * int) list)

(* Apriori over the reference trie kernel: the shared level loop, but
   counted by a horizontal walk of every transaction that shares no code
   with the vertical engine every other Apriori entry point runs on. *)
let trie_apriori ?max_size db ~min_support =
  let threshold = Apriori.absolute_threshold ~n:(Db.length db) ~min_support in
  Apriori.run_levels ?max_size ~threshold
    ~level1:(fun () -> Apriori.level1 db ~threshold)
    ~count_level:(Count.support_counts db) ()

(* A database round-tripped through the on-disk columnar format: each
   item's tids written to a temporary PPDMC file by [Colfile.write], then
   loaded by [Vertical.of_colfile] — the load path `ppdm mine --db` runs.
   The tids come straight from the rows, not from the engine under test
   or from [Colfile.convert]. *)
let via_colfile db =
  let n = Db.length db and universe = Db.universe db in
  let tids = Array.make universe [] in
  for tid = n - 1 downto 0 do
    Array.iter
      (fun item -> tids.(item) <- tid :: tids.(item))
      (Itemset.to_array (Db.get db tid))
  done;
  let path = Filename.temp_file "ppdm_oracle" ".ppdmc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Colfile.write path ~n (Array.map Array.of_list tids);
      let cf = Colfile.open_file path in
      Fun.protect
        ~finally:(fun () -> Colfile.close cf)
        (fun () -> Vertical.of_colfile cf))

let sequential_miners ?max_size () =
  [
    ("apriori", trie_apriori ?max_size);
    ( "apriori-vertical",
      fun db ~min_support -> Apriori.mine ?max_size db ~min_support );
    ( "apriori-columnar",
      fun db ~min_support ->
        Apriori.mine_vertical ?max_size (via_colfile db) ~min_support );
    ("eclat", fun db ~min_support -> Eclat.mine ?max_size db ~min_support);
    ("fp-growth", fun db ~min_support -> Fptree.mine ?max_size db ~min_support);
  ]

let parallel_miners ?max_size pool =
  let j = string_of_int (Ppdm_runtime.Pool.jobs pool) in
  [
    ( "parallel-apriori/j" ^ j,
      fun db ~min_support ->
        Ppdm_runtime.Parallel.apriori_mine pool ?max_size db ~min_support );
    ( "parallel-apriori-columnar/j" ^ j,
      fun db ~min_support ->
        Ppdm_runtime.Parallel.apriori_mine_vertical pool ?max_size
          (via_colfile db) ~min_support );
  ]

let canonical l =
  let sorted = List.sort (fun (a, _) (b, _) -> Itemset.compare a b) l in
  String.concat ";"
    (List.map
       (fun (s, c) -> Printf.sprintf "%s:%d" (Itemset.to_string s) c)
       sorted)

let agree ~miners db ~min_support =
  match miners with
  | [] -> Ok ()
  | (ref_name, ref_miner) :: rest ->
      let reference = canonical (ref_miner db ~min_support) in
      let rec go = function
        | [] -> Ok ()
        | (name, m) :: tl ->
            let got = canonical (m db ~min_support) in
            if String.equal got reference then go tl
            else
              Error
                (Printf.sprintf "%s disagrees with %s\n  %s: %s\n  %s: %s"
                   name ref_name ref_name reference name got)
      in
      go rest

let brute_force_frequent ?(max_size = max_int) db ~min_support =
  let u = Db.universe db in
  if u > 16 then
    invalid_arg "Oracle.brute_force_frequent: universe too large (max 16)";
  let threshold =
    Apriori.absolute_threshold ~n:(Db.length db) ~min_support
  in
  let out = ref [] in
  for mask = 1 to (1 lsl u) - 1 do
    let items =
      List.filter (fun i -> (mask lsr i) land 1 = 1) (List.init u Fun.id)
    in
    if List.length items <= max_size then begin
      let s = Itemset.of_list items in
      let c = Db.support_count db s in
      if c >= threshold then out := (s, c) :: !out
    end
  done;
  List.sort (fun (a, _) (b, _) -> Itemset.compare a b) !out

(* ------------------------------------------------------------ metamorphic *)

let duplicate_scales db ~index ~probes =
  if index < 0 || index >= Db.length db then
    invalid_arg "Oracle.duplicate_scales: index out of range";
  let t = Db.get db index in
  let extended =
    Db.append db (Db.create ~universe:(Db.universe db) [| t |])
  in
  let rec go = function
    | [] -> Ok ()
    | probe :: rest ->
        let before = Db.support_count db probe in
        let after = Db.support_count extended probe in
        let expected = before + if Itemset.subset probe t then 1 else 0 in
        if after = expected then go rest
        else
          Error
            (Printf.sprintf
               "duplicating tx %d: support of %s went %d -> %d, expected %d"
               index (Itemset.to_string probe) before after expected)
  in
  go probes

let check_permutation ~universe perm =
  if Array.length perm <> universe then
    invalid_arg "Oracle.permutation_relabels: wrong permutation length";
  let seen = Array.make universe false in
  Array.iter
    (fun i ->
      if i < 0 || i >= universe || seen.(i) then
        invalid_arg "Oracle.permutation_relabels: not a permutation";
      seen.(i) <- true)
    perm

let apply_perm perm s =
  Itemset.of_list (List.map (fun i -> perm.(i)) (Itemset.to_list s))

let permutation_relabels (name, miner) db ~min_support ~perm =
  check_permutation ~universe:(Db.universe db) perm;
  let permuted = Db.map (apply_perm perm) db in
  let got = canonical (miner permuted ~min_support) in
  let expected =
    canonical
      (List.map (fun (s, c) -> (apply_perm perm s, c)) (miner db ~min_support))
  in
  if String.equal got expected then Ok ()
  else
    Error
      (Printf.sprintf "%s is not permutation-equivariant\n  got:      %s\n  expected: %s"
         name got expected)

let padding_noop (name, miner) db ~min_support ~pad =
  if pad < 0 then invalid_arg "Oracle.padding_noop: negative pad";
  let padded =
    Db.create ~universe:(Db.universe db + pad) (Db.transactions db)
  in
  let got = canonical (miner padded ~min_support) in
  let expected = canonical (miner db ~min_support) in
  if String.equal got expected then Ok ()
  else
    Error
      (Printf.sprintf
         "%s is not invariant under universe padding\n  padded:   %s\n  original: %s"
         name got expected)

(* ---------------------------------------------------- estimator reference *)

(* Plain Gaussian elimination with partial pivoting; [a] and [b] are
   consumed.  Deliberately independent of Ppdm_linalg.Lu: the point of the
   oracle is that the production solve and the reference cannot share a
   bug. *)
let solve_gaussian a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < 1e-300 then
      invalid_arg "Oracle: singular transition matrix";
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = a.(row).(col) /. a.(col).(col) in
      if factor <> 0. then begin
        for k = col to n - 1 do
          a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
        done;
        b.(row) <- b.(row) -. (factor *. b.(col))
      end
    done
  done;
  let x = Array.make n 0. in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. a.(row).(row)
  done;
  x

let brute_force_support_estimate ~scheme ~data ~itemset =
  let n = Array.length data in
  if n = 0 then invalid_arg "Oracle.brute_force_support_estimate: empty data";
  let k = Itemset.cardinal itemset in
  let m = fst data.(0) in
  Array.iter
    (fun (size, _) ->
      if size <> m then
        invalid_arg
          "Oracle.brute_force_support_estimate: single transaction size only")
    data;
  if k > m then
    invalid_arg "Oracle.brute_force_support_estimate: itemset larger than size";
  let counts = Array.make (k + 1) 0 in
  Array.iter
    (fun (_, y) ->
      let l' = Itemset.inter_size y itemset in
      counts.(l') <- counts.(l') + 1)
    data;
  let frac = Array.map (fun c -> float_of_int c /. float_of_int n) counts in
  let p = Transition.of_scheme scheme ~size:m ~k in
  let a =
    Array.init (k + 1) (fun i -> Array.init (k + 1) (fun j -> Mat.get p i j))
  in
  let x = solve_gaussian a frac in
  x.(k)

(* ------------------------------------------------ estimator matrix route *)

(* The estimator as it was first written: the whole conditional
   covariance, conjugated by the whole inverse (or pseudo-inverse) with
   Mat.mul, then read at (k, k).  The library forms only that entry;
   these must agree with it bit for bit. *)

(* Cov(s') = (1/N) Σ_l s_l (diag(p_l) - p_l p_lᵀ), negative partials
   clamped. *)
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

(* One class: P⁻¹ (or the normal-equation pseudo-inverse when m < k)
   applied to the observed fractions, the covariance conjugated whole,
   both padded with structural zeros past column m. *)
let reference_class scheme ~size ~k counts =
  let resolved = Randomizer.resolve scheme ~size in
  let cols = min k (Array.length resolved.keep_dist - 1) + 1 in
  let p = Transition.rect_matrix resolved ~k in
  let unrecoverable () = raise (Estimator.Unrecoverable { size; k }) in
  let pinv =
    match
      if cols = k + 1 then Lu.inverse (Lu.decompose p)
      else
        let pt = Mat.transpose p in
        Lu.solve_mat (Lu.decompose (Mat.mul pt p)) pt
    with
    | pinv when Mat.norm_inf p *. Mat.norm_inf pinv <= 1e12 -> pinv
    | _ -> unrecoverable ()
    | exception Lu.Singular -> unrecoverable ()
  in
  let n = Array.fold_left ( + ) 0 counts in
  let observed = Array.map (fun c -> float_of_int c /. float_of_int n) counts in
  let short = Mat.mul_vec pinv observed in
  let cov_obs = conditional_cov p short n in
  let cov_short = Mat.mul pinv (Mat.mul cov_obs (Mat.transpose pinv)) in
  let partials = Array.make (k + 1) 0. in
  Array.blit short 0 partials 0 cols;
  let covariance =
    Mat.init ~rows:(k + 1) ~cols:(k + 1) (fun i j ->
        if i < cols && j < cols then Mat.get cov_short i j else 0.)
  in
  (partials, covariance, n)

let reference_estimate ~scheme ~k counts =
  let total =
    List.fold_left (fun acc (_, c) -> acc + Array.fold_left ( + ) 0 c) 0 counts
  in
  let counts = List.filter (fun (_, c) -> Array.exists (( <> ) 0) c) counts in
  let partials = Array.make (k + 1) 0. in
  let covariance = Mat.create ~rows:(k + 1) ~cols:(k + 1) in
  List.iter
    (fun (size, c) ->
      let class_partials, class_cov, n = reference_class scheme ~size ~k c in
      let w = float_of_int n /. float_of_int total in
      for l = 0 to k do
        partials.(l) <- partials.(l) +. (w *. class_partials.(l));
        for l2 = 0 to k do
          Mat.set covariance l l2
            (Mat.get covariance l l2 +. (w *. w *. Mat.get class_cov l l2))
        done
      done)
    counts;
  {
    Estimator.support = partials.(k);
    partials;
    sigma = sqrt (Float.max 0. (Mat.get covariance k k));
    n_transactions = total;
  }

let identity n = Mat.init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let cond_inf a = Mat.norm_inf a *. Mat.norm_inf (Lu.inverse (Lu.decompose a))

let reference_predicted_sigma p ~k ~partials ~n =
  let cov_obs = conditional_cov p partials n in
  let pinv = Lu.inverse (Lu.decompose p) in
  let cov = Mat.mul pinv (Mat.mul cov_obs (Mat.transpose pinv)) in
  sqrt (Float.max 0. (Mat.get cov k k))

(* ------------------------------------------------ transition reference *)

(* P(l' | l) summed entry by entry, every pmf recomputed in log space:
   the direct form of the transition probability, sharing nothing with
   the basis the library builds its matrices from. *)
let transition_probability (r : Randomizer.resolved) ~k ~l ~l' =
  let m = Array.length r.keep_dist - 1 in
  if l < 0 || l > min k m then
    invalid_arg "Oracle.transition_probability: l out of range";
  if l' < 0 || l' > k then
    invalid_arg "Oracle.transition_probability: l' out of range";
  let acc = ref 0. in
  for j = 0 to m do
    let pj = r.keep_dist.(j) in
    if pj > 0. then begin
      let q_lo = max 0 (l' - (k - l)) and q_hi = min l (min j l') in
      for q = q_lo to q_hi do
        let keep = Binomial.hypergeom_pmf ~total:m ~good:l ~draws:j q in
        if keep > 0. then
          acc :=
            !acc
            +. (pj *. keep *. Binomial.binomial_pmf ~n:(k - l) ~p:r.rho (l' - q))
      done
    end
  done;
  !acc

let transition_matrix (r : Randomizer.resolved) ~k =
  let m = Array.length r.keep_dist - 1 in
  Mat.init ~rows:(k + 1) ~cols:(min k m + 1) (fun l' l ->
      transition_probability r ~k ~l ~l')

(* The keep distribution of vertex [high]: p_j ∝ g_j (γ where high.(j)),
   normalized through log-sum-exp. *)
let reference_dist ~m ~rho ~gamma high =
  let logs =
    Array.init (m + 1) (fun j ->
        Binomial.log_choose m j
        +. (float_of_int j *. (log rho -. log (1. -. rho)))
        +. if high.(j) then log gamma else 0.)
  in
  let top = Array.fold_left Float.max neg_infinity logs in
  let unnorm = Array.map (fun l -> exp (l -. top)) logs in
  let total = Array.fold_left ( +. ) 0. unnorm in
  Array.map (fun v -> v /. total) unnorm

let reference_vertex_scorer ~m ~rho ~gamma objective =
  let sigmas ~n ~p_bg ~support ks =
    let terms =
      List.map
        (fun k ->
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
            +. reference_predicted_sigma
                 (Transition.weighted_sum basis dist)
                 ~k ~partials ~n)
          0. terms
      with
      | total -> -.total
      | exception Lu.Singular -> neg_infinity
  in
  let score =
    match objective with
    | Optimizer.Max_kept ->
        fun dist ->
          let acc = ref 0. in
          Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) dist;
          !acc /. float_of_int m
    | Optimizer.Min_sigma { k; n; p_bg; support } ->
        sigmas ~n ~p_bg ~support [ k ]
    | Optimizer.Min_sigma_upto { k_max; n; p_bg; support } ->
        sigmas ~n ~p_bg ~support (List.init (min k_max m) (fun i -> i + 1))
  in
  fun high -> score (reference_dist ~m ~rho ~gamma high)

(* The optimizer's vertex search and ρ search, restated with every
   transition matrix built by [transition_matrix].  Same objective as
   [Optimizer.design_for_estimation]'s defaults: Σ_{k ≤ min 3 m} σ_k. *)
let reference_search ~m ~rho ~gamma =
  let profiles =
    List.init (min 3 m) (fun i ->
        let k = i + 1 in
        (k, Estimator.binomial_profile ~k ~p_bg:0.02 ~support:0.01))
  in
  let score dist =
    let r = { Randomizer.keep_dist = dist; rho } in
    match
      List.fold_left
        (fun acc (k, partials) ->
          acc
          +. reference_predicted_sigma (transition_matrix r ~k) ~k ~partials
               ~n:100_000)
        0. profiles
    with
    | total -> -.total
    | exception Lu.Singular -> neg_infinity
  in
  let dist_of = reference_dist ~m ~rho ~gamma in
  let best = ref None in
  let consider high =
    let dist = dist_of high in
    let v = score dist in
    match !best with
    | Some (_, _, bv) when bv >= v -> ()
    | _ -> best := Some (Array.copy high, dist, v)
  in
  for threshold = 0 to m + 1 do
    consider (Array.init (m + 1) (fun j -> j >= threshold))
  done;
  if m <= 8 then
    for mask = 0 to (1 lsl (m + 1)) - 1 do
      consider (Array.init (m + 1) (fun j -> mask land (1 lsl j) <> 0))
    done
  else begin
    let improved = ref true and rounds = ref 0 in
    while !improved && !rounds < 10 do
      improved := false;
      incr rounds;
      let high, _, value = Option.get !best in
      for j = 0 to m do
        let candidate = Array.copy high in
        candidate.(j) <- not candidate.(j);
        let dist = dist_of candidate in
        let v = score dist in
        if v > value +. 1e-15 then begin
          best := Some (candidate, dist, v);
          improved := true
        end
      done
    done
  end;
  let _, dist, v = Option.get !best in
  (dist, v)

let reference_keep_dist ~m ~rho ~gamma = fst (reference_search ~m ~rho ~gamma)

let reference_design_rho ~m ~gamma =
  let grid =
    Array.init 20 (fun i ->
        let t = float_of_int i /. 19. in
        exp (log 1e-3 +. (t *. (log 0.5 -. log 1e-3))))
  in
  let value rho = snd (reference_search ~m ~rho ~gamma) in
  let best_rho = ref grid.(0) and best_value = ref neg_infinity in
  Array.iter
    (fun rho ->
      let v = value rho in
      if v > !best_value then begin
        best_value := v;
        best_rho := rho
      end)
    grid;
  let lo = Float.max 1e-4 (!best_rho /. 3.)
  and hi = Float.min 0.5 (!best_rho *. 3.) in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let a = ref (log lo) and b = ref (log hi) in
  for _ = 1 to 14 do
    let x1 = !b -. (phi *. (!b -. !a)) and x2 = !a +. (phi *. (!b -. !a)) in
    if value (exp x1) > value (exp x2) then b := x2 else a := x1
  done;
  let refined = exp (0.5 *. (!a +. !b)) in
  if value refined > !best_value then refined else !best_rho

(* ------------------------------------------------ private miner reference *)

(* The level-wise private miner with nothing shared between candidates:
   every candidate, singletons included, is counted on its own by a
   rescan of the whole tagged database and estimated by the matrix
   route. *)
let ppmining_reference ~max_size ~sigma_slack ~sigma_cap ~scheme ~data
    ~min_support =
  let eps = 1e-12 in
  let passes (d : Ppmining.discovery) =
    d.sigma < sigma_cap
    && d.est_support +. (sigma_slack *. d.sigma) >= min_support -. eps
  in
  let estimate itemset =
    let e =
      reference_estimate ~scheme ~k:(Itemset.cardinal itemset)
        (Estimator.observed_partial_counts data ~itemset)
    in
    { Ppmining.itemset; est_support = e.Estimator.support; sigma = e.Estimator.sigma }
  in
  let rec levels acc k candidates =
    if k > max_size || candidates = [] then acc
    else begin
      let next = List.filter passes (List.map estimate candidates) in
      levels (List.rev_append next acc) (k + 1)
        (Apriori.candidates_from
           ~frequent:(List.map (fun (d : Ppmining.discovery) -> d.itemset) next)
           ~size:(k + 1))
    end
  in
  let explored =
    List.sort
      (fun (a : Ppmining.discovery) b -> Itemset.compare a.itemset b.itemset)
      (levels [] 1 (List.init (Randomizer.universe scheme) Itemset.singleton))
  in
  {
    Ppmining.discovered =
      List.filter
        (fun (d : Ppmining.discovery) -> d.est_support >= min_support -. eps)
        explored;
    explored;
  }

(* The transpose the private miner ran before its report store: the
   tagged rows regrouped by original size through a table, each class
   padded with empty rows to a whole number of bitmap words, and the
   padded database transposed by [Vertical.of_db]. *)
let reference_transpose ~universe data : Reports.frozen =
  let count = Hashtbl.create 16 in
  Array.iter
    (fun (size, _) ->
      Hashtbl.replace count size
        (1 + Option.value ~default:0 (Hashtbl.find_opt count size)))
    data;
  let sizes = Array.of_seq (Hashtbl.to_seq_keys count) in
  Array.sort Int.compare sizes;
  let rows = Array.map (Hashtbl.find count) sizes in
  let bounds = Array.make (Array.length sizes + 1) 0 in
  Array.iteri (fun c n -> bounds.(c + 1) <- bounds.(c) + Bitset.words_for n) rows;
  let bits = Bitset.bits_per_word in
  (* from here on [count] holds each class's next free row *)
  Array.iteri (fun c size -> Hashtbl.replace count size (bits * bounds.(c))) sizes;
  let padded = Array.make (bits * bounds.(Array.length sizes)) Itemset.empty in
  Array.iter
    (fun (size, y) ->
      let row = Hashtbl.find count size in
      padded.(row) <- y;
      Hashtbl.replace count size (row + 1))
    data;
  { vt = Vertical.of_db (Db.create ~universe padded); sizes; rows; bounds }

let same_frozen ~(got : Reports.frozen) ~(want : Reports.frozen) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let field name a b =
    if a = b then Ok ()
    else Error (Printf.sprintf "%s [%s], expected [%s]" name (ints a) (ints b))
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  field "sizes" got.sizes want.sizes >>= fun () ->
  field "rows" got.rows want.rows >>= fun () ->
  field "bounds" got.bounds want.bounds >>= fun () ->
  let g = got.vt and w = want.vt in
  field "length, words, universe"
    [| Vertical.length g; Vertical.word_count g; Vertical.universe g |]
    [| Vertical.length w; Vertical.word_count w; Vertical.universe w |]
  >>= fun () ->
  let rec items i =
    if i = Vertical.universe w then Ok ()
    else
      let a = Vertical.item_tidset g i and b = Vertical.item_tidset w i in
      if Vertical.tidset_is_dense a <> Vertical.tidset_is_dense b then
        Error (Printf.sprintf "item %d: dense %b, expected %b" i
                 (Vertical.tidset_is_dense a) (Vertical.tidset_is_dense b))
      else if Vertical.item_count g i <> Vertical.item_count w i then
        Error (Printf.sprintf "item %d: count %d, expected %d" i
                 (Vertical.item_count g i) (Vertical.item_count w i))
      else
        field (Printf.sprintf "item %d tids" i) (Vertical.tidset_tids a)
          (Vertical.tidset_tids b)
        >>= fun () -> items (i + 1)
  in
  items 0

let same_explored ~(got : Ppmining.result) ~(want : Ppmining.result) =
  let bits = Int64.bits_of_float in
  let same (a : Ppmining.discovery) (b : Ppmining.discovery) =
    Itemset.equal a.itemset b.itemset
    && Int64.equal (bits a.est_support) (bits b.est_support)
    && Int64.equal (bits a.sigma) (bits b.sigma)
  in
  let show (d : Ppmining.discovery) =
    Printf.sprintf "%s est %h sigma %h" (Itemset.to_string d.itemset)
      d.est_support d.sigma
  in
  let rec go i = function
    | [], [] -> Ok ()
    | a :: ra, b :: rb when same a b -> go (i + 1) (ra, rb)
    | a :: _, b :: _ ->
        Error (Printf.sprintf "explored entry %d: %s, expected %s" i (show a) (show b))
    | _ ->
        Error
          (Printf.sprintf "explored %d itemsets, expected %d"
             (List.length got.explored) (List.length want.explored))
  in
  go 0 (got.explored, want.explored)

(* ------------------------------------------------------- server oracle *)

let server_matches_sequential ~jobs ~shards ~clients ~scheme ~itemsets ~data =
  if clients < 1 then invalid_arg "Oracle.server_matches_sequential: clients < 1";
  let module Serve = Ppdm_server.Serve in
  let module Client = Ppdm_server.Client in
  let server =
    Serve.start
      { (Serve.default_config ~scheme ~itemsets) with jobs; shards; batch = 32 }
  in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.stop server))
    (fun () ->
      let port = Serve.port server in
      let count = Array.length data in
      let sizes =
        List.sort_uniq compare (Array.to_list (Array.map fst data))
      in
      let slice i =
        let lo = i * count / clients and hi = (i + 1) * count / clients in
        Array.sub data lo (hi - lo)
      in
      let drive part () =
        let c = Client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            ignore (Client.handshake c ~scheme ~sizes ());
            Array.iter (fun (sz, y) -> Client.report c ~size:sz y) part;
            (* sync barrier: the snapshot reply proves every report above
               reached the shard queues *)
            ignore (Client.snapshot c ~flush:false))
      in
      Array.init clients (fun i -> Domain.spawn (drive (slice i)))
      |> Array.iter Domain.join;
      let served = Serve.snapshot_estimates server ~flush:true in
      let rec check = function
        | [] -> Ok ()
        | (itemset, est) :: rest -> (
            let acc = Stream.create ~scheme ~itemset in
            Array.iter (fun (sz, y) -> Stream.observe acc ~size:sz y) data;
            match est with
            | None when Stream.observed acc = 0 -> check rest
            | None -> Error (Itemset.to_string itemset ^ ": server served no estimate")
            | Some _ when Stream.observed acc = 0 ->
                Error (Itemset.to_string itemset ^ ": estimate out of nothing")
            | Some e ->
                let e' = Stream.estimate acc in
                if
                  e.Estimator.n_transactions = e'.Estimator.n_transactions
                  && e.Estimator.support = e'.Estimator.support
                  && e.Estimator.sigma = e'.Estimator.sigma
                then check rest
                else
                  Error
                    (Printf.sprintf
                       "%s: served %.17g+-%.17g over %d but sequential fold \
                        gives %.17g+-%.17g over %d (jobs %d, shards %d)"
                       (Itemset.to_string itemset) e.Estimator.support
                       e.Estimator.sigma e.Estimator.n_transactions
                       e'.Estimator.support e'.Estimator.sigma
                       e'.Estimator.n_transactions jobs shards))
      in
      check served)

(* --------------------------------------------- text writer reference *)

(* The writers [Io] had before its block encoder: one [string_of_int]
   and one channel call per item. *)
let output_transaction oc tx =
  Array.iteri
    (fun i x ->
      if i > 0 then output_char oc ' ';
      output_string oc (string_of_int x))
    (Itemset.to_array tx);
  output_char oc '\n'

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let reference_write_file path db =
  with_out path (fun oc ->
      Printf.fprintf oc "universe %d transactions %d\n" (Db.universe db)
        (Db.length db);
      Db.iter (output_transaction oc) db)

let reference_write_fimi path db =
  with_out path (fun oc -> Db.iter (output_transaction oc) db)

let reference_write_tagged path ~universe data =
  with_out path (fun oc ->
      Printf.fprintf oc "tagged %d transactions %d\n" universe
        (Array.length data);
      Array.iter
        (fun (size, items) ->
          Printf.fprintf oc "%d|" size;
          output_transaction oc items)
        data)

(* ---------------------------------------------------- privacy references *)

let column_stochastic ?(tolerance = 1e-9) m =
  let ok = ref true in
  for j = 0 to Mat.cols m - 1 do
    let sum = ref 0. in
    for i = 0 to Mat.rows m - 1 do
      let v = Mat.get m i j in
      if v < -.tolerance then ok := false;
      sum := !sum +. v
    done;
    if Float.abs (!sum -. 1.) > tolerance then ok := false
  done;
  !ok

let rr_channel ~size ~epsilon =
  if size < 2 then invalid_arg "Oracle.rr_channel: need >= 2 symbols";
  if epsilon < 0. then invalid_arg "Oracle.rr_channel: negative epsilon";
  let e = exp epsilon in
  let keep = e /. (e +. float_of_int (size - 1)) in
  let other = (1. -. keep) /. float_of_int (size - 1) in
  Channel.create
    (Mat.init ~rows:size ~cols:size (fun y x -> if y = x then keep else other))

let compose_channels second first =
  let a = Channel.matrix second and b = Channel.matrix first in
  if Mat.cols a <> Mat.rows b then
    invalid_arg "Oracle.compose_channels: domain mismatch";
  Channel.create (Mat.mul a b)

let channel_posterior c ~prior ~y =
  let m = Channel.matrix c in
  if Array.length prior <> Mat.cols m then
    invalid_arg "Oracle.channel_posterior: prior dimension mismatch";
  let total = Array.fold_left ( +. ) 0. prior in
  if Float.abs (total -. 1.) > 1e-9 || Array.exists (fun p -> p < 0.) prior then
    invalid_arg "Oracle.channel_posterior: prior is not a probability vector";
  let weighted = Array.mapi (fun x p -> p *. Mat.get m y x) prior in
  let mass = Array.fold_left ( +. ) 0. weighted in
  if mass <= 0. then
    invalid_arg
      "Oracle.channel_posterior: output has zero probability under the prior";
  Array.map (fun w -> w /. mass) weighted

let channel_inversion c ~counts =
  let n = Array.fold_left ( + ) 0 counts in
  let observed = Array.map (fun c -> float_of_int c /. float_of_int n) counts in
  Lu.solve (Lu.decompose (Channel.matrix c)) observed

let item_posteriors (r : Randomizer.resolved) ~prior =
  if prior < 0. || prior > 1. then
    invalid_arg "Oracle.item_posteriors: prior out of [0,1]";
  let m = Array.length r.keep_dist - 1 in
  let q_in =
    if m = 0 then 1.
    else begin
      let acc = ref 0. in
      Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) r.keep_dist;
      !acc /. float_of_int m
    end
  in
  let bayes ~kept ~noise =
    let num = prior *. kept in
    let denom = num +. ((1. -. prior) *. noise) in
    if denom <= 0. then 0. else num /. denom
  in
  ( bayes ~kept:q_in ~noise:r.rho,
    bayes ~kept:(1. -. q_in) ~noise:(1. -. r.rho) )

let itemset_posterior r ~partials =
  let k = Array.length partials - 1 in
  let total = Array.fold_left ( +. ) 0. partials in
  if Float.abs (total -. 1.) > 1e-6 then
    invalid_arg "Oracle.itemset_posterior: partials must sum to 1";
  (* P(A ⊆ R(t)) = Σ_l s_l P(k | l); the l = k term is the "cause". *)
  let p = Transition.matrix r ~k in
  let denom = ref 0. in
  for l = 0 to k do
    if partials.(l) > 0. then
      denom := !denom +. (partials.(l) *. Mat.get p k l)
  done;
  if !denom <= 0. then 0. else partials.(k) *. Mat.get p k k /. !denom

let posterior_lower_bound ~gamma ~prior =
  if prior < 0. || prior > 1. then
    invalid_arg "Oracle.posterior_lower_bound: prior out of [0,1]";
  if gamma = infinity then 0.
  else prior /. ((gamma *. (1. -. prior)) +. prior)

let item_epsilon_of_uniform ~p_keep ~p_add =
  let ratio a b =
    if a = b then 0.
    else if b <= 0. || a <= 0. then infinity
    else Float.abs (log (a /. b))
  in
  Float.max (ratio p_keep p_add) (ratio (1. -. p_keep) (1. -. p_add))

(* ------------------------------------------------- partial-count reference *)

let partial_counts_of_supports ~k support =
  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
    go mask 0
  in
  let full = (1 lsl k) - 1 in
  let n = Array.make (k + 1) 0 in
  for mask = 0 to full do
    (* rows holding exactly the items of [mask] among those of A *)
    let exact = ref 0 in
    for sup = mask to full do
      if sup land mask = mask then begin
        let sign = if popcount (sup lxor mask) land 1 = 0 then 1 else -1 in
        exact := !exact + (sign * support sup)
      end
    done;
    n.(popcount mask) <- n.(popcount mask) + !exact
  done;
  n
