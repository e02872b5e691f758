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

let sequential_miners ?max_size () =
  [
    ("apriori", trie_apriori ?max_size);
    ( "apriori-vertical",
      fun db ~min_support -> Apriori.mine ?max_size db ~min_support );
    (* the compressed-container kernels, driven file-free: transpose,
       re-encode every tid-set as a roaring-style column, mine in place *)
    ( "apriori-columnar",
      fun db ~min_support ->
        Apriori.mine_vertical ?max_size
          (Vertical.compress (Vertical.of_db db))
          ~min_support );
    ("eclat", fun db ~min_support -> Eclat.mine ?max_size db ~min_support);
    ("fp-growth", fun db ~min_support -> Fptree.mine ?max_size db ~min_support);
    (* sampled at F = 1.0 is contractually byte-identical to the exact
       engine (the plan is exhaustive and scaling is the identity), so
       it can join the differential suite; F < 1 cannot — it gets its
       own statistical checks in Stat. *)
    ( "apriori-sampled-1.0",
      fun db ~min_support ->
        Apriori.mine ?max_size
          ~counter:(Apriori.Sampled { fraction = 1.0; seed = 0 })
          db ~min_support );
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
          (Vertical.compress (Vertical.of_db db))
          ~min_support );
    ( "parallel-apriori-sampled-1.0/j" ^ j,
      fun db ~min_support ->
        Ppdm_runtime.Parallel.apriori_mine pool ?max_size
          ~counter:(Apriori.Sampled { fraction = 1.0; seed = 0 })
          db ~min_support );
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

(* ------------------------------------------------ private miner reference *)

(* The level-wise private miner with nothing shared between candidates:
   every candidate, singletons included, is estimated on its own by
   Estimator.estimate, which rescans the whole tagged database. *)
let ppmining_reference ~max_size ~sigma_slack ~sigma_cap ~scheme ~data
    ~min_support =
  let eps = 1e-12 in
  let passes (d : Ppmining.discovery) =
    d.sigma < sigma_cap
    && d.est_support +. (sigma_slack *. d.sigma) >= min_support -. eps
  in
  let estimate itemset =
    let e = Estimator.estimate ~scheme ~data ~itemset in
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
