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
         let data = Draw.tagged scheme rng db in
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
   smaller than k take the pseudo-inverse; some classes all zero), and
   predicted σ on the class matrices.  A class the library rejects as unrecoverable must be
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
         let label =
           Printf.sprintf "%s k=%d classes %s" (Randomizer.name scheme) k
             (String.concat ","
                (List.map
                   (fun (size, c) ->
                     Printf.sprintf "%d:[%s]" size
                       (String.concat " " (Array.to_list (Array.map string_of_int c))))
                   counts))
         in
         let m = k + Rng.int rng (13 - k) in
         let partials =
           Estimator.binomial_profile ~k ~p_bg:(0.3 *. Rng.float rng)
             ~support:(Rng.float rng)
         in
         let n = 1 + Rng.int rng 100_000 in
         let p = Transition.matrix (Randomizer.resolve scheme ~size:m) ~k in
         if total = 0 then Ok ()
         else
           match
             compare_outcomes ~what:label ~same:same_estimate
               ~show:(fun (e : Estimator.t) ->
                 Printf.sprintf "support %h sigma %h partials [%s]" e.support e.sigma
                   (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") e.partials))))
               (fun () -> Estimator.estimate_from_counts ~scheme ~k ~counts)
               (fun () -> Oracle.reference_estimate ~scheme ~k counts)
           with
           | Error _ as e -> e
           | Ok () ->
               compare_outcomes
                 ~what:
                   (Printf.sprintf "%s predicted sigma at m=%d n=%d"
                      (Randomizer.name scheme) m n)
                 ~same:same_float ~show:(Printf.sprintf "%h")
                 (fun () ->
                   Estimator.predicted_sigma_of_matrix p ~k ~partials ~n)
                 (fun () ->
                   Oracle.reference_predicted_sigma p ~k ~partials ~n)))

(* ------------------------------------------- recover route differential *)

(* [recover]'s route, restated on the library calls it makes: a tagged
   file folded row by row into one accumulator built from the header. *)
let streamed_recover ~scheme ~itemset path =
  let acc, _ =
    Io.read_tagged path
      ~init:(fun _ -> Stream.create ~scheme ~itemset)
      ~f:(fun acc (size, y) ->
        Stream.observe acc ~size y;
        acc)
  in
  Stream.estimate acc

(* The per-size histograms counted row by row for each size in turn,
   sharing nothing with the library's layout. *)
let reference_counts data ~itemset =
  let k = Itemset.cardinal itemset in
  List.map
    (fun size ->
      let c = Array.make (k + 1) 0 in
      Array.iter
        (fun (m, y) ->
          if m = size then
            let l = Itemset.inter_size itemset y in
            c.(l) <- c.(l) + 1)
        data;
      (size, c))
    (List.sort_uniq Int.compare (Array.to_list (Array.map fst data)))

let recover_route_differential ~seed ~count =
  let universe = 16 in
  let optimized =
    Optimizer.scheme_for_estimation ~rho:0.2 ~universe ~gamma:19. ()
  in
  let bits = Int64.bits_of_float in
  let same (a : Estimator.t) (b : Estimator.t) =
    Int64.equal (bits a.support) (bits b.support)
    && Int64.equal (bits a.sigma) (bits b.sigma)
    && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a.partials b.partials
    && a.n_transactions = b.n_transactions
  in
  let outcome f =
    match f () with
    | e -> Ok e
    | exception (Estimator.Unrecoverable _ as e) -> Error e
  in
  let show = function
    | Ok (e : Estimator.t) ->
        Printf.sprintf "support %h sigma %h N %d" e.support e.sigma e.n_transactions
    | Error e -> Printexc.to_string e
  in
  prop
    (Property.check_result ~seed ~count:(max 20 count)
       ~name:"streamed recover == Estimator.estimate == matrix route"
       (Gen.int_range 0 1_000_000)
       (fun key ->
         let rng = Rng.create ~seed:key () in
         let scheme =
           match Rng.int rng 3 with
           | 0 ->
               Randomizer.uniform ~universe
                 ~p_keep:(0.5 +. (0.45 *. Rng.float rng))
                 ~p_add:(0.01 +. (0.2 *. Rng.float rng))
           | 1 ->
               Randomizer.cut_and_paste ~universe ~cutoff:(1 + Rng.int rng 6)
                 ~rho:(0.01 +. (0.3 *. Rng.float rng))
           | _ -> optimized
         in
         let k = 1 + Rng.int rng 4 in
         let itemset =
           Itemset.of_list (List.init k (fun i -> (i * 3) + Rng.int rng 3))
         in
         let db =
           Db.create ~universe
             (Array.init (30 + Rng.int rng 300) (fun _ ->
                  Itemset.of_list
                    (List.init (Rng.int rng 9) (fun _ -> Rng.int rng universe))))
         in
         let data = Draw.tagged scheme rng db in
         let path = Filename.temp_file "ppdm_selftest" ".tagged" in
         let streamed =
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () ->
               Io.write_tagged path ~universe data;
               outcome (fun () -> streamed_recover ~scheme ~itemset path))
         in
         let batch = outcome (fun () -> Estimator.estimate ~scheme ~data ~itemset) in
         let matrix =
           outcome (fun () ->
               Oracle.reference_estimate ~scheme ~k (reference_counts data ~itemset))
         in
         match (streamed, batch, matrix) with
         | Ok a, Ok b, Ok c when same a b && same a c -> Ok ()
         | Error a, Error b, Error c when a = b && a = c -> Ok ()
         | _ ->
             Error
               (Printf.sprintf "%s k=%d: streamed %s, estimate %s, matrix route %s"
                  (Randomizer.name scheme) k (show streamed) (show batch)
                  (show matrix))))

(* ---------------------------------------------- route parity differential *)

(* One store, the three server routes the CLI takes, bit for bit: the
   private miner ([private]), one accumulator folded over the rows
   ([recover]), and the rows cut into client slices, routed round-robin
   onto shards by each session, folded there and merged into fresh
   accumulators ([load] into [serve]).  With no σ cap and no support
   floor to speak of, the miner explores every probe, however noisy its
   estimate. *)
let route_parity_differential ~seed ~count =
  let universe = 16 in
  let optimized =
    Optimizer.scheme_for_estimation ~rho:0.2 ~universe ~gamma:19. ()
  in
  let bits = Int64.bits_of_float in
  let same_float a b = Int64.equal (bits a) (bits b) in
  let show_e (e : Estimator.t) =
    Printf.sprintf "support %h sigma %h N %d" e.support e.sigma
      e.n_transactions
  in
  let report_of items off len =
    Itemset.of_sorted_array_unchecked (Array.sub items off len)
  in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  prop
    (Property.check_result ~seed ~count:(max 20 (count / 2))
       ~name:"private == recover == serve on one store"
       (Gen.int_range 0 1_000_000)
       (fun key ->
         let rng = Rng.create ~seed:key () in
         let scheme =
           match Rng.int rng 3 with
           | 0 ->
               Randomizer.uniform ~universe
                 ~p_keep:(0.7 +. (0.25 *. Rng.float rng))
                 ~p_add:(0.01 +. (0.09 *. Rng.float rng))
           | 1 ->
               Randomizer.cut_and_paste ~universe ~cutoff:(3 + Rng.int rng 4)
                 ~rho:(0.02 +. (0.18 *. Rng.float rng))
           | _ -> optimized
         in
         (* sizes 0..6; the first rows are empty, hold item 0 and hold
            item [universe - 1] *)
         let db =
           Db.create ~universe
             (Array.init (300 + Rng.int rng 700) (fun i ->
                  if i = 0 then Itemset.empty
                  else if i = 1 then Itemset.singleton 0
                  else if i = 2 then Itemset.singleton (universe - 1)
                  else
                    Itemset.of_sorted_array_unchecked
                      (Dist.sample_distinct rng ~k:(Rng.int rng 7)
                         ~bound:universe)))
         in
         let store =
           Parallel.randomize pool ~chunk:(1 + Rng.int rng 64) scheme rng db
         in
         let probes =
           List.map Itemset.of_list
             [
               [ 0 ];
               [ universe - 1 ];
               [ 0; universe - 1 ];
               [ 0; 1 + Rng.int rng (universe - 2); universe - 1 ];
             ]
           @ List.init 3 (fun k ->
                 Itemset.of_sorted_array_unchecked
                   (Dist.sample_distinct rng ~k:(k + 1) ~bound:universe))
         in
         let mined =
           Ppmining.mine_reports ~max_size:3 ~sigma_slack:1e6
             ~sigma_cap:Float.infinity ~scheme ~reports:store ~min_support:1e-6
             ()
         in
         let recover itemset =
           let acc = Stream.create ~scheme ~itemset in
           Reports.iter_rows store (fun size items off len ->
               Stream.observe acc ~size (report_of items off len));
           Stream.estimate acc
         in
         let served =
           let n = Reports.length store in
           let clients = 1 + Rng.int rng 3 and shards = 1 + Rng.int rng 3 in
           let shard_of =
             Array.init shards (fun _ ->
                 Ppdm_server.Shard.create ~scheme ~itemsets:probes
                   ~capacity:(n + 1))
           in
           for i = 0 to clients - 1 do
             let next = ref 0 in
             Reports.iter_rows store
               ~lo:(i * n / clients) ~hi:((i + 1) * n / clients)
               (fun size items off len ->
                 ignore
                   (Ppdm_server.Shard.submit shard_of.(!next)
                      (size, report_of items off len, 0));
                 next := (!next + 1) mod shards)
           done;
           let totals =
             List.map (fun itemset -> Stream.create ~scheme ~itemset) probes
           in
           Array.iter
             (fun shard ->
               Ppdm_server.Shard.close shard;
               Ppdm_server.Shard.fold_loop shard ~batch:(1 + Rng.int rng 64);
               Ppdm_server.Shard.merge_into shard totals)
             shard_of;
           List.map Stream.estimate totals
         in
         let rec check = function
           | [] -> Ok ()
           | (itemset, (s : Estimator.t)) :: rest -> (
               let r = recover itemset in
               let fail what =
                 Error
                   (Printf.sprintf "%s, %s: recover %s, %s"
                      (Randomizer.name scheme) (Itemset.to_string itemset)
                      (show_e r) what)
               in
               match
                 List.find_opt
                   (fun (d : Ppmining.discovery) ->
                     Itemset.equal d.itemset itemset)
                   mined.explored
               with
               | None -> fail "private did not explore it"
               | Some d ->
                   if
                     not
                       (same_float r.support s.support
                       && same_float r.sigma s.sigma
                       && r.n_transactions = s.n_transactions)
                   then fail ("serve " ^ show_e s)
                   else if
                     not
                       (same_float r.support d.est_support
                       && same_float r.sigma d.sigma)
                   then
                     fail
                       (Printf.sprintf "private support %h sigma %h"
                          d.est_support d.sigma)
                   else check rest)
         in
         check (List.combine probes served)))

(* ------------------------------------------ indexed shard fold differential *)

(* The shard folds each report by item and derives each layout's l = 0
   entries from its per-size row count.  Against one [Stream.observe] per
   tracked itemset, count for count: tracked itemsets that overlap and
   repeat, items 0 and [universe - 1], empty and full reports, sizes up
   to the universe, 1-4 shards folding on their own domains in random
   batches.  Each shard is read once mid-stream and again at the end, so
   a stale l = 0 entry shows; an extra shard folds nothing. *)
let shard_fold_differential ~seed ~count =
  let show a =
    "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]"
  in
  prop
    (Property.check_result ~seed ~count
       ~name:"indexed shard fold == Stream.observe per itemset"
       (Gen.int_range 0 1_000_000)
       (fun key ->
         let rng = Rng.create ~seed:key () in
         let universe = 1 + Rng.int rng 40 in
         let scheme = Randomizer.uniform ~universe ~p_keep:0.8 ~p_add:0.05 in
         let subset k =
           Itemset.of_sorted_array_unchecked
             (Dist.sample_distinct rng ~k ~bound:universe)
         in
         let drawn =
           List.init (1 + Rng.int rng 6) (fun _ ->
               subset (1 + Rng.int rng (min 4 universe)))
         in
         (* the first drawn itemset repeats, and grows into a superset *)
         let head = List.hd drawn and tail = List.nth drawn (List.length drawn - 1) in
         let tracked =
           [ Itemset.singleton 0; Itemset.singleton (universe - 1) ]
           @ drawn
           @ [ head; Itemset.union head tail; Itemset.of_list [ 0; universe - 1 ] ]
         in
         let report () =
           let y =
             match Rng.int rng 6 with
             | 0 -> Itemset.empty
             | 1 -> Itemset.of_list [ 0; universe - 1 ]
             | 2 -> subset universe
             | _ -> subset (Rng.int rng (universe + 1))
           in
           (Rng.int rng (universe + 1), y)
         in
         let first = Array.init (Rng.int rng 300) (fun _ -> report ()) in
         let second = Array.init (Rng.int rng 300) (fun _ -> report ()) in
         let n_shards = 1 + Rng.int rng 4 in
         let create () =
           Ppdm_server.Shard.create ~scheme ~itemsets:tracked
             ~capacity:(1 + Rng.int rng 64)
         in
         let shards = Array.init n_shards (fun _ -> create ()) in
         let idle = create () in
         let folders =
           Array.map
             (fun shard ->
               let batch = 1 + Rng.int rng 64 in
               Domain.spawn (fun () -> Ppdm_server.Shard.fold_loop shard ~batch))
             shards
         in
         let submit rows =
           Array.iter
             (fun (size, y) ->
               ignore
                 (Ppdm_server.Shard.submit shards.(Rng.int rng n_shards)
                    (size, y, 0)))
             rows
         in
         let merged shards =
           let totals =
             List.map (fun itemset -> Stream.create ~scheme ~itemset) tracked
           in
           Array.iter (fun shard -> Ppdm_server.Shard.merge_into shard totals) shards;
           totals
         in
         let check what rows totals =
           List.combine tracked totals
           |> List.find_map (fun (itemset, got) ->
                  let want = Stream.create ~scheme ~itemset in
                  Array.iter (fun (size, y) -> Stream.observe want ~size y) rows;
                  if
                    Stream.counts got = Stream.counts want
                    && Stream.observed got = Stream.observed want
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "%s, universe %d, %d shard(s), %s: shard %s (%d), \
                          observe %s (%d)"
                         what universe n_shards (Itemset.to_string itemset)
                         (show (Stream.counts got)) (Stream.observed got)
                         (show (Stream.counts want)) (Stream.observed want)))
         in
         submit first;
         Array.iter Ppdm_server.Shard.quiesce shards;
         let mid = check "mid-stream" first (merged shards) in
         submit second;
         Array.iter Ppdm_server.Shard.close shards;
         Array.iter Domain.join folders;
         Ppdm_server.Shard.close idle;
         Ppdm_server.Shard.fold_loop idle ~batch:1;
         let all = Array.append first second in
         match
           [ mid;
             check "final" all (merged (Array.append shards [| idle |]));
             check "idle shard" [||] (merged [| idle |]) ]
           |> List.find_map Fun.id
         with
         | None -> Ok ()
         | Some e -> Error e))

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
        let reports = Draw.reports scheme rng db in
        let reference =
          Oracle.ppmining_reference ~max_size:4 ~sigma_slack ~sigma_cap ~scheme
            ~data:(Draw.rows reports) ~min_support
        in
        let rec caps max_size =
          if max_size > 4 then go rest
          else
            let got =
              Ppmining.mine_reports ~max_size ~sigma_slack ~sigma_cap ~scheme
                ~reports ~min_support ()
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

(* ------------------------------------------------- writer differential *)

(* Ids of 1 to 7 digits, item 0 among them: a digit count first, then an
   id of that many digits. *)
let writer_universe = 1_100_000

let writer_row rng =
  let rec pow10 d = if d = 0 then 1 else 10 * pow10 (d - 1) in
  let item () =
    let d = 1 + Rng.int rng 7 in
    let lo = if d = 1 then 0 else pow10 (d - 1) in
    lo + Rng.int rng (min writer_universe (pow10 d) - lo)
  in
  match Rng.int rng 10 with
  | 0 -> Itemset.empty
  | 1 -> Itemset.singleton 0
  | _ -> Itemset.of_array (Array.init (1 + Rng.int rng 15) (fun _ -> item ()))

(* Original sizes of 1 to 3 digits. *)
let writer_tagged rng rows = Array.map (fun y -> (Rng.int rng 120, y)) rows

let file_contents path = In_channel.with_open_bin path In_channel.input_all

(* [write] and [reference] into two temporary files, compared byte for
   byte; the reference's length on success. *)
let same_output ~what write reference =
  let got = Filename.temp_file "ppdm_writer" ".txt"
  and want = Filename.temp_file "ppdm_writer" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove got;
      Sys.remove want)
    (fun () ->
      write got;
      reference want;
      let g = file_contents got and w = file_contents want in
      if String.equal g w then Ok (String.length w)
      else
        let n = min (String.length g) (String.length w) in
        let rec first i = if i < n && g.[i] = w.[i] then first (i + 1) else i in
        Error
          (Printf.sprintf
             "%s: %d bytes, the reference %d, first difference at %d" what
             (String.length g) (String.length w) (first 0)))

(* Every writer against its reference on one database: plain, FIMI,
   tagged, and tagged from the report store of the same rows. *)
let writers_agree ~name ~universe rows tagged =
  let db = Db.create ~universe rows in
  let ( let* ) = Result.bind in
  let what format = name ^ ", " ^ format in
  let* plain =
    same_output ~what:(what "plain") (fun p -> Io.write_file p db) (fun p ->
        Oracle.reference_write_file p db)
  in
  let* fimi =
    same_output ~what:(what "FIMI") (fun p -> Io.write_fimi p db) (fun p ->
        Oracle.reference_write_fimi p db)
  in
  let reference p = Oracle.reference_write_tagged p ~universe tagged in
  let* tag =
    same_output ~what:(what "tagged")
      (fun p -> Io.write_tagged p ~universe tagged)
      reference
  in
  let store = Reports.of_tagged ~universe tagged in
  let* _ =
    same_output ~what:(what "tagged from a store")
      (fun p ->
        Io.write_tagged_rows p ~universe ~rows:(Reports.length store)
          (Reports.iter_rows store))
      reference
  in
  Ok (plain, fimi, tag)

(* Rows grown with empty ones ([pad n] of them) until [measure] of them
   is a whole, nonzero number of blocks. *)
let rec padded ~measure ~pad rows =
  let len = measure rows in
  let gap = (Io.block_size - (len mod Io.block_size)) mod Io.block_size in
  if gap = 0 && len > 0 then rows
  else
    let more = pad (if gap = 0 then Io.block_size else gap) in
    padded ~measure ~pad (Array.append rows more)

let reference_length write =
  let path = Filename.temp_file "ppdm_writer" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      String.length (file_contents path))

(* The block writer against the [Printf] reference, byte for byte, on
   random databases with empty rows, item 0 and ids of 1 to 7 digits; on
   a row longer than a block; on files of exactly whole blocks in each
   format; and on the report store [randomize] writes, against the
   tagged rows of [Parallel.randomize_db_tagged] at the same seed. *)
let writer_differential ~seed ~count pool =
  let rng = Rng.create ~seed () in
  let universe = writer_universe in
  let random_case i =
    let rows = Array.init (Rng.int rng 300) (fun _ -> writer_row rng) in
    writers_agree ~name:(Printf.sprintf "database %d" i) ~universe rows
      (writer_tagged rng rows)
  in
  let long_row () =
    let long =
      Itemset.of_array (Array.init 10_000 (fun i -> 1_000_000 + (9 * i)))
    in
    let rows = [| Itemset.empty; long; Itemset.singleton 0 |] in
    writers_agree ~name:"a row longer than a block" ~universe rows
      (writer_tagged rng rows)
  in
  let whole_blocks () =
    let base = Array.init 200 (fun _ -> writer_row rng) in
    let empty n = Array.make n Itemset.empty in
    let plain =
      padded ~pad:empty base ~measure:(fun rows ->
          reference_length (fun p ->
              Oracle.reference_write_file p (Db.create ~universe rows)))
    and fimi =
      padded ~pad:empty base ~measure:(fun rows ->
          reference_length (fun p ->
              Oracle.reference_write_fimi p (Db.create ~universe rows)))
    and tagged =
      (* "0|" and "10|" rows, 3 and 4 bytes: [b] of the latter make up
         any gap of at least 8 *)
      padded ~measure:(fun data ->
          reference_length (fun p ->
              Oracle.reference_write_tagged p ~universe data))
        (writer_tagged rng base) ~pad:(fun gap ->
          let gap = if gap < 8 then gap + Io.block_size else gap in
          let b = gap mod 3 in
          Array.append
            (Array.make b (10, Itemset.empty))
            (Array.make ((gap - (4 * b)) / 3) (0, Itemset.empty)))
    in
    let whole what len =
      if len > 0 && len mod Io.block_size = 0 then Ok ()
      else Error (Printf.sprintf "%s: padding left %d bytes" what len)
    in
    let ( let* ) = Result.bind in
    let* len, _, _ =
      writers_agree ~name:"whole blocks, plain" ~universe plain
        (writer_tagged rng plain)
    in
    let* () = whole "plain" len in
    let* _, len, _ =
      writers_agree ~name:"whole blocks, FIMI" ~universe fimi
        (writer_tagged rng fimi)
    in
    let* () = whole "FIMI" len in
    let* _, _, len =
      writers_agree ~name:"whole blocks, tagged" ~universe
        (Array.map snd tagged) tagged
    in
    whole "tagged" len
  in
  let randomized (name, scheme) =
    let universe = Randomizer.universe scheme in
    let db = store_case_db ~universe rng in
    let key = Rng.int rng 1_000_000 in
    let store =
      Parallel.randomize pool ~chunk:64 scheme (Rng.create ~seed:key ()) db
    and tagged =
      Parallel.randomize_db_tagged pool ~chunk:64 scheme
        (Rng.create ~seed:key ()) db
    in
    Result.map ignore
      (same_output ~what:("randomized store, " ^ name)
         (fun p ->
           Io.write_tagged_rows p ~universe ~rows:(Reports.length store)
             (Reports.iter_rows store))
         (fun p -> Oracle.reference_write_tagged p ~universe tagged))
  in
  let rec all = function
    | [] -> Ok ()
    | check :: rest -> (
        match check () with Ok _ -> all rest | Error _ as e -> e)
  in
  all
    (List.init (max 3 (count / 10)) (fun i () ->
         Result.map ignore (random_case i))
    @ [
        (fun () -> Result.map ignore (long_row ()));
        whole_blocks;
        (fun () ->
          randomized
            ( "optimized, universe 60",
              Optimizer.scheme_for_estimation ~k:2 ~representative_size:4
                ~universe:60 ~gamma:19. () ));
        (fun () ->
          randomized
            ( "cut-and-paste, universe 1500",
              Randomizer.cut_and_paste ~universe:1500 ~cutoff:5 ~rho:0.001 ));
      ])

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
                ignore (Colfile.payload cf item)
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
                        try
                          ignore
                            (Io.read_tagged p ~init:(fun _ -> 0)
                               ~f:(fun n (size, y) ->
                                 n + size + Itemset.cardinal y))
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
                     let out = Draw.tagged scheme rng db in
                     if
                       Array.length out = Db.length db
                       && Array.for_all
                            (fun (_, y) ->
                              Itemset.fold
                                (fun i acc -> acc && i >= 0 && i < u)
                                y true)
                            out
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
          ( "differential: block writer == Printf reference, byte for byte",
            fun () -> writer_differential ~seed ~count pool2 );
          ( "differential: estimator kernel == matrix route, bit for bit",
            fun () -> estimator_kernel_differential ~seed ~count );
          ( "differential: streamed recover == estimate == matrix route, \
             bit for bit",
            fun () -> recover_route_differential ~seed ~count );
          ( "differential: private == recover == serve on one store, bit \
             for bit",
            fun () -> route_parity_differential ~seed ~count );
          ( "differential: indexed shard fold == Stream.observe per \
             itemset, count for count",
            fun () -> shard_fold_differential ~seed ~count );
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
              let data = Draw.tagged scheme rng db in
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
