open Ppdm_data
open Ppdm_mining

type node = {
  item : int;
  mutable count : int;
  parent : node option;
  children : (int, node) Hashtbl.t;
}

type tree = {
  root : node;
  headers : (int, node list ref) Hashtbl.t;  (** per-item node lists *)
}

let make_node ?parent item =
  { item; count = 0; parent; children = Hashtbl.create 4 }

let make_tree () =
  { root = make_node (-1); headers = Hashtbl.create 64 }

let header_add tree item node =
  match Hashtbl.find_opt tree.headers item with
  | Some l -> l := node :: !l
  | None -> Hashtbl.replace tree.headers item (ref [ node ])

(* Insert a path of items (already ordered by descending global frequency)
   with the given count. *)
let insert tree path count =
  let node = ref tree.root in
  List.iter
    (fun item ->
      let child =
        match Hashtbl.find_opt !node.children item with
        | Some child -> child
        | None ->
            let child = make_node ~parent:!node item in
            Hashtbl.replace !node.children item child;
            header_add tree item child;
            child
      in
      child.count <- child.count + count;
      node := child)
    path

(* Items of a conditional pattern base with their counts. *)
let item_counts_of_paths paths =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (path, count) ->
      List.iter
        (fun item ->
          Hashtbl.replace counts item
            (count + Option.value ~default:0 (Hashtbl.find_opt counts item)))
        path)
    paths;
  counts

(* Build a conditional FP-tree from (path, count) pairs, keeping only items
   meeting the threshold and ordering each path by descending count. *)
let build_conditional paths threshold =
  let counts = item_counts_of_paths paths in
  let frequent item = Option.value ~default:0 (Hashtbl.find_opt counts item) >= threshold in
  let order a b =
    let ca = Hashtbl.find counts a and cb = Hashtbl.find counts b in
    if ca <> cb then compare cb ca else compare a b
  in
  let tree = make_tree () in
  List.iter
    (fun (path, count) ->
      let kept = List.filter frequent path in
      let sorted = List.sort order kept in
      if sorted <> [] then insert tree sorted count)
    paths;
  tree

(* Walk up parent pointers to collect the prefix path of a node. *)
let prefix_path node =
  let rec up acc n =
    match n.parent with
    | None -> acc
    | Some p -> if p.item < 0 then acc else up (p.item :: acc) p
  in
  up [] node

let pattern_base tree item =
  match Hashtbl.find_opt tree.headers item with
  | None -> []
  | Some nodes ->
      List.filter_map
        (fun n ->
          let path = prefix_path n in
          if path = [] then None else Some (path, n.count))
        !nodes

let item_total tree item =
  match Hashtbl.find_opt tree.headers item with
  | None -> 0
  | Some nodes -> List.fold_left (fun acc n -> acc + n.count) 0 !nodes

let mine ?max_size db ~min_support =
  Threshold.check_min_support ~who:"Fptree.mine" min_support;
  let threshold = Threshold.absolute ~n:(Db.length db) ~min_support in
  let cap = Option.value max_size ~default:max_int in
  if cap < 1 then []
  else begin
    let global_counts = Db.item_counts db in
    let order a b =
      if global_counts.(a) <> global_counts.(b) then
        compare global_counts.(b) global_counts.(a)
      else compare a b
    in
    let tree = make_tree () in
    Db.iter
      (fun tx ->
        let kept =
          List.filter
            (fun item -> global_counts.(item) >= threshold)
            (Itemset.to_list tx)
        in
        let sorted = List.sort order kept in
        if sorted <> [] then insert tree sorted 1)
      db;
    let results = ref [] in
    (* Grow patterns: for each item of the (conditional) tree, emit the
       extended suffix and recurse on its conditional tree. *)
    let rec grow tree suffix depth =
      if depth <= cap then
        Hashtbl.iter
          (fun item _nodes ->
            let total = item_total tree item in
            if total >= threshold then begin
              let pattern = item :: suffix in
              results := (Itemset.of_list pattern, total) :: !results;
              if depth < cap then begin
                let base = pattern_base tree item in
                if base <> [] then
                  grow (build_conditional base threshold) pattern (depth + 1)
              end
            end)
          tree.headers
    in
    grow tree [] 1;
    List.sort (fun (a, _) (b, _) -> Itemset.compare a b) !results
  end
