open Ppdm_data
open Ppdm_mining

type discovery = { itemset : Itemset.t; est_support : float; sigma : float }
type result = { discovered : discovery list; explored : discovery list }

(* The tagged rows regrouped by original size, each class padded with
   empty rows to a whole number of bitmap words, and transposed once.
   Class [c] owns the word window [bounds.(c), bounds.(c + 1)); an empty
   row holds no item, so padding changes no support a window reports. *)
type classes = {
  vt : Vertical.t;
  sizes : int array;  (** ascending *)
  rows : int array;  (** rows per class, padding excluded *)
  bounds : int array;
}

let transpose ~universe data =
  Ppdm_obs.Span.with_ ~name:"ppmining.transpose" @@ fun () ->
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

(* Inclusion-exclusion over the subsets of A: a row counts towards
   supp(B) for every B ⊆ y ∩ A, so the Möbius transform over supersets
   turns subset supports into the number of rows with y ∩ A = B exactly,
   and N_l sums those over |B| = l.  (Grouped by |B| this is the binomial
   inversion N_l = Σ_{j ≥ l} (-1)^(j-l) C(j, l) S_j.)  Exact integers. *)
let partial_counts ~k support =
  if k < 0 || k > 30 then invalid_arg "Ppmining.partial_counts: k outside [0, 30]";
  let exact = Array.init (1 lsl k) support in
  for b = 0 to k - 1 do
    for mask = 0 to (1 lsl k) - 1 do
      if mask land (1 lsl b) = 0 then
        exact.(mask) <- exact.(mask) - exact.(mask lor (1 lsl b))
    done
  done;
  let n = Array.make (k + 1) 0 in
  Array.iteri (fun mask c -> n.(Bitset.popcount mask) <- n.(Bitset.popcount mask) + c) exact;
  n

module Table = Hashtbl.Make (struct
  type t = Itemset.t

  let equal = Itemset.equal
  let hash = Itemset.hash
end)

(* One level: count the batch once per class window, recover each
   candidate's per-class partial counts from its subsets' supports (every
   proper subset survived a lower level, by the Apriori prune), estimate
   the batch with one factorization per class, and keep the survivors'
   supports for the levels above. *)
let level cl supports ~scheme ~passes ~k candidates =
  Ppdm_obs.Span.with_ ~name:"ppmining.level" @@ fun () ->
  let candidates = Array.of_list (List.sort_uniq Itemset.compare candidates) in
  Ppdm_obs.Metrics.add "ppmining.candidates" (Array.length candidates);
  (* [prepare] keeps this order: already sorted and unique *)
  let prepared = Vertical.prepare (Array.to_list candidates) in
  let scratch = Vertical.make_scratch cl.vt in
  let by_class =
    Array.init (Array.length cl.sizes) (fun c ->
        Vertical.count_into ~scratch cl.vt ~word_lo:cl.bounds.(c)
          ~word_hi:cl.bounds.(c + 1) prepared)
  in
  let estimate = Estimator.for_batch ~scheme ~k in
  let full = (1 lsl k) - 1 in
  let survivors = ref [] in
  Array.iteri
    (fun i itemset ->
      let own = Array.map (fun counts -> counts.(i)) by_class in
      let items = Itemset.unsafe_to_array itemset in
      let subset mask =
        if mask = 0 then cl.rows
        else if mask = full then own
        else begin
          let sub = Array.make (Bitset.popcount mask) 0 and j = ref 0 in
          Array.iteri
            (fun b item ->
              if (mask lsr b) land 1 = 1 then begin
                sub.(!j) <- item;
                incr j
              end)
            items;
          Table.find supports (Itemset.of_sorted_array_unchecked sub)
        end
      in
      let subsets = Array.init (full + 1) subset in
      let e =
        estimate
          (List.init (Array.length cl.sizes) (fun c ->
               (cl.sizes.(c), partial_counts ~k (fun mask -> subsets.(mask).(c)))))
      in
      let d =
        { itemset; est_support = e.Estimator.support; sigma = e.Estimator.sigma }
      in
      if passes d then begin
        Table.replace supports itemset own;
        survivors := d :: !survivors
      end)
    candidates;
  List.rev !survivors

let mine ?max_size ?(sigma_slack = 2.0) ?sigma_cap ~scheme ~data ~min_support
    () =
  if min_support <= 0. || min_support > 1. then
    invalid_arg "Ppmining.mine: min_support out of (0,1]";
  if Array.length data = 0 then invalid_arg "Ppmining.mine: empty data";
  let cap = Option.value max_size ~default:max_int in
  let sigma_cap = Option.value sigma_cap ~default:(min_support /. 2.) in
  (* Estimates travel through matrix inversions, so threshold comparisons
     carry a one-ulp tolerance: an exact-support itemset must not be
     dropped by rounding. *)
  let eps = 1e-12 in
  let passes d =
    d.sigma < sigma_cap
    && d.est_support +. (sigma_slack *. d.sigma) >= min_support -. eps
  in
  let explored =
    if cap < 1 then []
    else begin
      let universe = Randomizer.universe scheme in
      let cl = transpose ~universe data in
      let supports = Table.create 256 in
      let rec levels acc k candidates =
        if candidates = [] then acc
        else begin
          let next = level cl supports ~scheme ~passes ~k candidates in
          (* rev_append: the final sort fixes the order *)
          let acc = List.rev_append next acc in
          if k = cap then acc
          else
            levels acc (k + 1)
              (Apriori.candidates_from
                 ~frequent:(List.map (fun d -> d.itemset) next)
                 ~size:(k + 1))
        end
      in
      levels [] 1 (List.init universe Itemset.singleton)
    end
  in
  let ordered =
    List.sort (fun a b -> Itemset.compare a.itemset b.itemset) explored
  in
  {
    discovered = List.filter (fun d -> d.est_support >= min_support -. eps) ordered;
    explored = ordered;
  }

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_drops : int;
}

let accuracy_vs ~truth ~mined =
  let truth_set = Hashtbl.create (2 * List.length truth) in
  List.iter (fun (s, _) -> Hashtbl.replace truth_set s ()) truth;
  let mined_set = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace mined_set d.itemset ())
    mined.discovered;
  let true_positives = ref 0 and false_positives = ref 0 in
  Hashtbl.iter
    (fun s () ->
      if Hashtbl.mem truth_set s then incr true_positives
      else incr false_positives)
    mined_set;
  let false_drops = ref 0 in
  Hashtbl.iter
    (fun s () -> if not (Hashtbl.mem mined_set s) then incr false_drops)
    truth_set;
  {
    true_positives = !true_positives;
    false_positives = !false_positives;
    false_drops = !false_drops;
  }
