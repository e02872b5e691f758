open Ppdm_data
open Ppdm_mining

type discovery = { itemset : Itemset.t; est_support : float; sigma : float }
type result = { discovered : discovery list; explored : discovery list }

(* Inclusion-exclusion over the subsets of A, in place: [exact] holds
   supp(B) for each subset mask B on entry.  A row counts towards supp(B)
   for every B ⊆ y ∩ A, so the Möbius transform over supersets turns
   subset supports into the number of rows with y ∩ A = B exactly, and
   N_l, written to [out.(off + l)], sums those over |B| = l.  (Grouped by
   |B| this is the binomial inversion N_l = Σ_{j ≥ l} (-1)^(j-l) C(j, l)
   S_j.)  Exact integers. *)
let mobius_into ~k exact out ~off =
  for b = 0 to k - 1 do
    for mask = 0 to (1 lsl k) - 1 do
      if mask land (1 lsl b) = 0 then
        exact.(mask) <- exact.(mask) - exact.(mask lor (1 lsl b))
    done
  done;
  Array.fill out off (k + 1) 0;
  for mask = 0 to (1 lsl k) - 1 do
    let l = off + Bitset.popcount mask in
    out.(l) <- out.(l) + exact.(mask)
  done

let partial_counts ~k support =
  if k < 0 || k > 30 then invalid_arg "Ppmining.partial_counts: k outside [0, 30]";
  let n = Array.make (k + 1) 0 in
  mobius_into ~k (Array.init (1 lsl k) support) n ~off:0;
  n

module Table = Hashtbl.Make (struct
  type t = Itemset.t

  let equal = Itemset.equal
  let hash = Itemset.hash
end)

(* What the discovery rule makes of one estimate. *)
type verdict = Kept | Over_sigma_cap | Below_support

(* One level: count the batch once per class window, recover each
   candidate's per-class partial counts from its subsets' supports (every
   proper subset survived a lower level, by the Apriori prune), estimate
   the batch with one factorization per class, and keep the survivors'
   supports for the levels above. *)
let level (cl : Reports.frozen) supports ~scheme ~verdict ~k candidates =
  Ppdm_obs.Span.with_ ~name:"ppmining.level" @@ fun () ->
  let candidates = Array.of_list (List.sort_uniq Itemset.compare candidates) in
  Ppdm_obs.Metrics.add "ppmining.candidates" (Array.length candidates);
  let by_class =
    Ppdm_obs.Span.with_ ~name:"ppmining.count" @@ fun () ->
    (* [prepare] keeps this order: already sorted and unique *)
    let prepared = Vertical.prepare (Array.to_list candidates) in
    let scratch = Vertical.make_scratch cl.vt in
    Array.init (Array.length cl.sizes) (fun c ->
        Vertical.count_into ~scratch cl.vt ~word_lo:cl.bounds.(c)
          ~word_hi:cl.bounds.(c + 1) prepared)
  in
  Ppdm_obs.Span.with_ ~name:"ppmining.estimate" @@ fun () ->
  let batch = Estimator.batch ~scheme ~k cl.sizes in
  let classes = Array.length cl.sizes and full = (1 lsl k) - 1 in
  (* Reused by every candidate: each subset mask's per-class supports,
     one lookup key per subset size, the Möbius table and the classes'
     histograms. *)
  let subsets = Array.make (full + 1) cl.rows in
  let keys = Array.init (k + 1) (fun j -> Array.make j 0) in
  let exact = Array.make (full + 1) 0 in
  let counts = Array.make (classes * (k + 1)) 0 in
  let survivors = ref [] and over_cap = ref 0 and below = ref 0 in
  Array.iteri
    (fun i itemset ->
      let own = Array.map (fun counts -> counts.(i)) by_class in
      let items = Itemset.unsafe_to_array itemset in
      for mask = 1 to full - 1 do
        let key = keys.(Bitset.popcount mask) and j = ref 0 in
        for b = 0 to k - 1 do
          if (mask lsr b) land 1 = 1 then begin
            key.(!j) <- items.(b);
            incr j
          end
        done;
        subsets.(mask) <- Table.find supports (Itemset.of_sorted_array_unchecked key)
      done;
      subsets.(full) <- own;
      for c = 0 to classes - 1 do
        for mask = 0 to full do
          exact.(mask) <- subsets.(mask).(c)
        done;
        mobius_into ~k exact counts ~off:(c * (k + 1))
      done;
      let e = Estimator.pooled batch counts in
      let d =
        { itemset; est_support = e.Estimator.support; sigma = e.Estimator.sigma }
      in
      match verdict d with
      | Kept ->
          Table.replace supports itemset own;
          survivors := d :: !survivors
      | Over_sigma_cap -> incr over_cap
      | Below_support -> incr below)
    candidates;
  Ppdm_obs.Metrics.add "ppmining.pruned.sigma_cap" !over_cap;
  Ppdm_obs.Metrics.add "ppmining.pruned.support" !below;
  List.rev !survivors

let mine_reports ?max_size ?(sigma_slack = 2.0) ?sigma_cap ~scheme ~reports
    ~min_support () =
  Threshold.check_min_support ~who:"Ppmining.mine" min_support;
  if Reports.length reports = 0 then invalid_arg "Ppmining.mine: empty data";
  let cap = Option.value max_size ~default:max_int in
  let sigma_cap = Option.value sigma_cap ~default:(min_support /. 2.) in
  (* Estimates travel through matrix inversions, so threshold comparisons
     carry a one-ulp tolerance: an exact-support itemset must not be
     dropped by rounding. *)
  let eps = 1e-12 in
  let verdict d =
    if not (d.sigma < sigma_cap) then Over_sigma_cap
    else if d.est_support +. (sigma_slack *. d.sigma) >= min_support -. eps then
      Kept
    else Below_support
  in
  let explored =
    if cap < 1 then []
    else begin
      let universe = Randomizer.universe scheme in
      let cl =
        Ppdm_obs.Span.with_ ~name:"ppmining.transpose" (fun () ->
            Reports.freeze reports)
      in
      let supports = Table.create 256 in
      let rec levels acc k candidates =
        if candidates = [] then acc
        else begin
          let next = level cl supports ~scheme ~verdict ~k candidates in
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

let mine ?max_size ?sigma_slack ?sigma_cap ~scheme ~data ~min_support () =
  let reports = Reports.of_tagged ~universe:(Randomizer.universe scheme) data in
  mine_reports ?max_size ?sigma_slack ?sigma_cap ~scheme ~reports ~min_support ()

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
