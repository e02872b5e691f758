open Ppdm_data

(* Self-join: two (k-1)-itemsets sharing their first k-2 items produce a
   k-candidate; the prune then requires every (k-1)-subset to be frequent.
   The (k-1)-itemsets are sorted lexicographically and cut into runs
   sharing their (k-2)-prefix, so the join only pairs within a prefix
   class instead of scanning the whole level per itemset. *)
let compare_int_arrays a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then Stdlib.compare la lb
    else
      let c = Stdlib.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let candidates_from ~frequent ~size =
  if size < 2 then invalid_arg "Apriori.candidates_from: size must be >= 2";
  let known = Hashtbl.create (2 * List.length frequent) in
  List.iter (fun s -> Hashtbl.replace known s ()) frequent;
  (* read-only from here on, so the non-copying view is safe *)
  let arrays = List.map Itemset.unsafe_to_array frequent in
  let sorted =
    Array.of_list (List.filter (fun a -> Array.length a = size - 1) arrays)
  in
  Array.sort compare_int_arrays sorted;
  let same_prefix a b =
    let ok = ref true in
    for i = 0 to size - 3 do
      if a.(i) <> b.(i) then ok := false
    done;
    !ok
  in
  let all_subsets_frequent candidate =
    let ok = ref true in
    let k = Array.length candidate in
    for drop = 0 to k - 1 do
      if !ok then begin
        let sub =
          Array.init (k - 1) (fun i -> if i < drop then candidate.(i) else candidate.(i + 1))
        in
        if not (Hashtbl.mem known (Itemset.of_sorted_array_unchecked sub)) then
          ok := false
      end
    done;
    !ok
  in
  let acc = ref [] in
  let n = Array.length sorted in
  let run_start = ref 0 in
  while !run_start < n do
    (* the run of itemsets sharing sorted.(!run_start)'s (k-2)-prefix:
       contiguous because the sort is lexicographic *)
    let run_end = ref (!run_start + 1) in
    while !run_end < n && same_prefix sorted.(!run_start) sorted.(!run_end) do
      incr run_end
    done;
    for i = !run_start to !run_end - 1 do
      for j = i + 1 to !run_end - 1 do
        let a = sorted.(i) and b = sorted.(j) in
        (* within a run the last items ascend, but duplicates in the input
           would make them equal: keep the strict test *)
        if a.(size - 2) < b.(size - 2) then begin
          let candidate = Array.append a [| b.(size - 2) |] in
          Ppdm_obs.Metrics.incr "apriori.candidates.joined";
          if all_subsets_frequent candidate then
            acc := Itemset.of_sorted_array_unchecked candidate :: !acc
          else Ppdm_obs.Metrics.incr "apriori.candidates.pruned"
        end
      done
    done;
    run_start := !run_end
  done;
  List.rev !acc

let absolute_threshold ~n ~min_support =
  Threshold.check_min_support ~who:"Apriori.absolute_threshold" min_support;
  Threshold.absolute ~n ~min_support

(* Level 1 straight from per-item counts — an array is all it takes, so
   the columnar path (which has counts but no Db) seeds the same way. *)
let level1_of_counts counts ~threshold =
  counts |> Array.to_seqi
  |> Seq.filter_map (fun (item, c) ->
         if c >= threshold then Some (Itemset.singleton item, c) else None)
  |> List.of_seq

let level1 db ~threshold = level1_of_counts (Db.item_counts db) ~threshold

(* Per-level observability shared with the parallel driver: candidate and
   survivor counts per Apriori level (names are computed, so the whole
   block sits behind the enabled flag). *)
let record_level ~size ~candidates ~frequent =
  if Ppdm_obs.Metrics.enabled () then begin
    Ppdm_obs.Metrics.add
      (Printf.sprintf "apriori.level%d.candidates" size)
      (List.length candidates);
    Ppdm_obs.Metrics.add
      (Printf.sprintf "apriori.level%d.frequent" size)
      (List.length frequent)
  end

(* Per-level phase span (and, through it, a timeline slice): which level
   a miner stalls on is invisible in the aggregate span totals.  The name
   is computed, so the disabled path stays one flag check. *)
let with_level_span ~size f =
  if Ppdm_obs.Metrics.any_enabled () then
    Ppdm_obs.Span.with_ ~name:(Printf.sprintf "apriori.level%d" size) f
  else f ()

(* The engine-independent level-wise loop, shared by every Apriori driver
   (sequential and parallel, row-major and columnar): seed with level 1,
   then generate-count-filter until the cap or an empty level.  All
   engines produce Itemset.compare-sorted (itemset, count) lists with
   identical counts, so the mined output is byte-identical across
   drivers. *)
let run_levels ?max_size ~threshold ~level1 ~count_level () =
  let cap = Option.value max_size ~default:max_int in
  let level1 = with_level_span ~size:1 level1 in
  record_level ~size:1 ~candidates:level1 ~frequent:level1;
  let rec levels acc current size =
    if size > cap || current = [] then acc
    else begin
      let next =
        with_level_span ~size (fun () ->
            let candidates =
              candidates_from ~frequent:(List.map fst current) ~size
            in
            if candidates = [] then []
            else begin
              let counted = count_level candidates in
              let next = List.filter (fun (_, c) -> c >= threshold) counted in
              record_level ~size ~candidates ~frequent:next;
              next
            end)
      in
      (* rev_append, not (@): the final sort fixes the order, and
         appending per level is quadratic in the output size. *)
      levels (List.rev_append next acc) next (size + 1)
    end
  in
  let result = if cap < 1 then [] else levels level1 level1 2 in
  List.sort (fun (a, _) (b, _) -> Itemset.compare a b) result

(* The level loop over a transposed database: level 1 seeds from the
   per-item counts, every later level goes through [count_level]. *)
let run_vertical_levels ?max_size vt ~min_support ~count_level =
  let threshold = absolute_threshold ~n:(Vertical.length vt) ~min_support in
  let counts = Array.init (Vertical.universe vt) (Vertical.item_count vt) in
  run_levels ?max_size ~threshold
    ~level1:(fun () -> level1_of_counts counts ~threshold)
    ~count_level ()

(* The one exact engine: word-level intersections on the vertical
   tid-sets, whether they came from a transpose or a columnar file. *)
let exact_levels ?max_size vt ~min_support =
  Ppdm_obs.Metrics.incr "apriori.counter.vertical";
  let scratch = Vertical.make_scratch vt in
  run_vertical_levels ?max_size vt ~min_support
    ~count_level:(Vertical.support_counts ~scratch vt)

type counter = Vertical | Auto

let mine ?max_size db ~min_support =
  Threshold.check_min_support ~who:"Apriori.mine" min_support;
  Ppdm_obs.Span.with_ ~name:"apriori.mine" (fun () ->
      exact_levels ?max_size (Vertical.of_db db) ~min_support)

(* Mine an already-vertical database — the entry point for columnar
   input, where no Db.t ever exists. *)
let mine_vertical ?max_size vt ~min_support =
  Threshold.check_min_support ~who:"Apriori.mine_vertical" min_support;
  Ppdm_obs.Span.with_ ~name:"apriori.mine" (fun () ->
      exact_levels ?max_size vt ~min_support)
