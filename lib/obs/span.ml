type node = {
  n_name : string;
  mutable n_total : int;
  mutable n_calls : int;
  n_children : (string, node) Hashtbl.t;
}

type t = { name : string; total_ns : int; calls : int; children : t list }

let make_node name =
  { n_name = name; n_total = 0; n_calls = 0; n_children = Hashtbl.create 4 }

(* Per-domain state: a synthetic root plus the stack of open spans.  The
   stack is never empty — the root is its bottom. *)
type domain_state = { root : node; mutable stack : node list }

let registry_lock = Mutex.create ()
let registry : domain_state list ref = ref []

let state_key =
  Domain.DLS.new_key (fun () ->
      let root = make_node "" in
      let st = { root; stack = [ root ] } in
      Mutex.lock registry_lock;
      registry := st :: !registry;
      Mutex.unlock registry_lock;
      st)

(* One [Metrics.any_enabled] load guards the whole disabled path; only
   past it do we learn which of the two layers (aggregating span tree,
   event timeline) is actually on. *)
let with_ ~name f =
  if not (Metrics.any_enabled ()) then f ()
  else begin
    let record = Metrics.enabled () and traced = Trace.enabled () in
    if traced then Trace.begin_ ~name ~cat:"span";
    if not record then
      Fun.protect ~finally:(fun () -> if traced then Trace.end_ ~name ~cat:"span") f
    else begin
      let st = Domain.DLS.get state_key in
      let parent = List.hd st.stack in
      let child =
        match Hashtbl.find_opt parent.n_children name with
        | Some c -> c
        | None ->
            let c = make_node name in
            Hashtbl.replace parent.n_children name c;
            c
      in
      child.n_calls <- child.n_calls + 1;
      st.stack <- child :: st.stack;
      let t0 = Metrics.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          (* clamp: the wall clock can step backwards (Metrics.now_ns) *)
          child.n_total <- child.n_total + max 0 (Metrics.now_ns () - t0);
          st.stack <- List.tl st.stack;
          if traced then Trace.end_ ~name ~cat:"span")
        f
    end
  end

(* Merge a list of same-name nodes into one snapshot; children are merged
   by name recursively and sorted, so the result does not depend on the
   order domains registered in. *)
let rec merge_nodes name nodes =
  let total = List.fold_left (fun acc n -> acc + n.n_total) 0 nodes in
  let calls = List.fold_left (fun acc n -> acc + n.n_calls) 0 nodes in
  { name; total_ns = total; calls; children = merge_children nodes }

and merge_children nodes =
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.iter
        (fun name child ->
          Hashtbl.replace by_name name
            (child :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
        n.n_children)
    nodes;
  Hashtbl.fold (fun name group acc -> merge_nodes name group :: acc) by_name []
  |> List.sort (fun a b -> compare a.name b.name)

let tree () =
  Mutex.lock registry_lock;
  let states = !registry in
  Mutex.unlock registry_lock;
  merge_children (List.map (fun st -> st.root) states)

let reset () =
  Mutex.lock registry_lock;
  let states = !registry in
  Mutex.unlock registry_lock;
  List.iter
    (fun st ->
      Hashtbl.reset st.root.n_children;
      st.root.n_total <- 0;
      st.root.n_calls <- 0)
    states
