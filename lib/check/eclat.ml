open Ppdm_data
open Ppdm_mining

(* Tid-sets are the adaptive dense/sparse hybrids of the vertical
   engine: dense atoms intersect by word-wide AND, a sparse operand
   against a dense one probes bit by bit, two sparse ones merge.  Counts
   come back with every intersection, so patterns never recount. *)

(* The frequent (item, tid-set, count) triples, in item order: one
   vertical scan, and the roots of the prefix classes. *)
let atoms db ~threshold =
  Ppdm_obs.Span.with_ ~name:"eclat.atoms" @@ fun () ->
  let vt = Vertical.of_db db in
  let items =
    List.filter_map Fun.id
      (List.init (Db.universe db) (fun item ->
           let count = Vertical.item_count vt item in
           if count >= threshold then
             Some (item, Vertical.item_tidset vt item, count)
           else None))
  in
  let items = Array.of_list items in
  if Ppdm_obs.Metrics.enabled () then begin
    Ppdm_obs.Metrics.gauge "eclat.atoms" (float_of_int (Array.length items));
    let dense =
      Array.fold_left
        (fun acc (_, ts, _) -> if Vertical.tidset_is_dense ts then acc + 1 else acc)
        0 items
    in
    Ppdm_obs.Metrics.add "eclat.atoms.dense" dense;
    Ppdm_obs.Metrics.add "eclat.atoms.sparse" (Array.length items - dense)
  end;
  items

(* DFS over prefix classes: [atoms] holds (item, tid-set, count) triples
   usable to extend the current prefix, all items greater than the
   prefix's last item. *)
let rec dfs ~threshold cap results prefix depth atoms =
  List.iteri
    (fun idx (item, tids, count) ->
      let pattern = item :: prefix in
      Ppdm_obs.Metrics.incr "eclat.patterns";
      results := (Itemset.of_list pattern, count) :: !results;
      if depth < cap then begin
        let extensions =
          List.filteri (fun j _ -> j > idx) atoms
          |> List.filter_map (fun (other, other_tids, _) ->
                 let joint, joint_count =
                   Vertical.inter_tidsets tids other_tids
                 in
                 if joint_count >= threshold then
                   Some (other, joint, joint_count)
                 else None)
        in
        if extensions <> [] then
          dfs ~threshold cap results pattern (depth + 1) extensions
      end)
    atoms

(* Each root atom owns its prefix class; extensions come from every
   atom after it, so the classes partition the output. *)
let extend ~cap atoms ~threshold =
  Ppdm_obs.Span.with_ ~name:"eclat.extend" @@ fun () ->
  let results = ref [] in
  let n = Array.length atoms in
  for i = 0 to n - 1 do
    let item, tids, count = atoms.(i) in
    Ppdm_obs.Metrics.incr "eclat.patterns";
    results := (Itemset.singleton item, count) :: !results;
    if cap > 1 then begin
      let extensions = ref [] in
      for j = n - 1 downto i + 1 do
        let other, other_tids, _ = atoms.(j) in
        let joint, joint_count = Vertical.inter_tidsets tids other_tids in
        if joint_count >= threshold then
          extensions := (other, joint, joint_count) :: !extensions
      done;
      (* The frontier of each prefix class: how unevenly the DFS work
         falls across the roots. *)
      if Ppdm_obs.Metrics.enabled () then
        Ppdm_obs.Metrics.observe "eclat.prefix_class.extensions"
          (List.length !extensions);
      if !extensions <> [] then
        dfs ~threshold cap results [ item ] 2 !extensions
    end
  done;
  !results

let mine ?max_size db ~min_support =
  Threshold.check_min_support ~who:"Eclat.mine" min_support;
  Ppdm_obs.Span.with_ ~name:"eclat.mine" (fun () ->
      let cap = Option.value max_size ~default:max_int in
      if cap < 1 then []
      else begin
        let threshold = Threshold.absolute ~n:(Db.length db) ~min_support in
        let results = extend ~cap (atoms db ~threshold) ~threshold in
        List.sort (fun (a, _) (b, _) -> Itemset.compare a b) results
      end)
