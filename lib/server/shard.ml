open Ppdm_data
open Ppdm

type t = {
  (* (original_size, randomized_itemset, submitted_ns); the timestamp is
     0 when metrics are off, so the disabled path never reads a clock. *)
  queue : (int * Itemset.t * int) Ingest.t;
  scheme : Randomizer.t;
  itemsets : Itemset.t array;
  ks : int array;  (** cardinal of each tracked itemset *)
  holders : int array array;
      (** item -> the tracked itemsets that hold it, by index; items past
          the largest tracked one are in none *)
  (* Under acc_lock: *)
  layouts : int array array;
      (** per tracked itemset, the {!Stream} layout
          [counts.(size * (k+1) + l)] for [l >= 1]; the [l = 0] entries
          are filled only by [merge_into] *)
  mutable rows : int array;  (** reports folded per original size *)
  hits : int array;  (** per tracked itemset, hits of the current report *)
  touched : int array;  (** the itemsets the current report hit *)
  mutable folded : int;
  acc_lock : Mutex.t;
}

let create ~scheme ~itemsets ~capacity =
  if itemsets = [] then invalid_arg "Shard.create: no tracked itemsets";
  let itemsets = Array.of_list itemsets in
  let n = Array.length itemsets in
  let top =
    Array.fold_left (fun m s -> Itemset.fold max s m) (-1) itemsets
  in
  let holders = Array.make (top + 1) [] in
  for j = n - 1 downto 0 do
    Itemset.iter (fun i -> holders.(i) <- j :: holders.(i)) itemsets.(j)
  done;
  {
    queue = Ingest.create ~capacity;
    scheme;
    itemsets;
    ks = Array.map Itemset.cardinal itemsets;
    holders = Array.map Array.of_list holders;
    layouts = Array.make n [||];
    rows = [||];
    hits = Array.make n 0;
    touched = Array.make n 0;
    folded = 0;
    acc_lock = Mutex.create ();
  }

let submit t report = Ingest.push t.queue report

(* [a] grown to [len] counts, exactly: a layout stays as long as the
   largest size seen. *)
let grown a len =
  let missing = len - Array.length a in
  if missing > 0 then Array.append a (Array.make missing 0) else a

(* One report: walk its items once, count the hits per tracked itemset,
   and add 1 at (size, hits) for each itemset it hit.  A report that hits
   an itemset nowhere lands in that layout's l = 0 entry, which
   [merge_into] derives from [rows]. *)
let fold_report t size y =
  if size >= Array.length t.rows then t.rows <- grown t.rows (size + 1);
  t.rows.(size) <- t.rows.(size) + 1;
  let items = Itemset.unsafe_to_array y in
  let n_touched = ref 0 in
  for p = 0 to Array.length items - 1 do
    let i = items.(p) in
    if i < Array.length t.holders then begin
      let hs = t.holders.(i) in
      for q = 0 to Array.length hs - 1 do
        let j = hs.(q) in
        let h = t.hits.(j) in
        if h = 0 then begin
          t.touched.(!n_touched) <- j;
          incr n_touched
        end;
        t.hits.(j) <- h + 1
      done
    end
  done;
  for q = 0 to !n_touched - 1 do
    let j = t.touched.(q) in
    let off = size * (t.ks.(j) + 1) in
    if off >= Array.length t.layouts.(j) then
      t.layouts.(j) <- grown t.layouts.(j) (off + t.ks.(j) + 1);
    let layout = t.layouts.(j) and c = off + t.hits.(j) in
    layout.(c) <- layout.(c) + 1;
    t.hits.(j) <- 0
  done

let fold_batch t batch =
  let universe = Randomizer.universe t.scheme in
  (* Checked up front, so a batch folds entirely or not at all. *)
  Array.iter
    (fun (size, _, _) ->
      if size < 0 || size > universe then
        invalid_arg "Shard.fold_batch: size outside [0, universe]")
    batch;
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (fun () ->
      Array.iter (fun (size, y, _) -> fold_report t size y) batch;
      Ppdm_obs.Metrics.add "stream.observed"
        (Array.length batch * Array.length t.itemsets);
      t.folded <- t.folded + Array.length batch)

let fold_loop t ~batch =
  let instrument = Ppdm_obs.Metrics.any_enabled () in
  let rec go () =
    match Ingest.pop_batch t.queue ~max:batch with
    | [||] -> ()
    | b ->
        if instrument then begin
          Ppdm_obs.Metrics.observe "server.batch.size" (Array.length b);
          Ppdm_obs.Metrics.gauge "server.queue.depth"
            (float_of_int (Ingest.depth t.queue));
          let now = Ppdm_obs.Metrics.now_ns () in
          Ppdm_obs.Window.mark ~now "server.ingest" (Array.length b);
          Array.iter
            (fun (_, _, ts) ->
              if ts > 0 then
                Ppdm_obs.Window.observe ~now "server.fold.latency_ns"
                  (now - ts))
            b;
          Ppdm_obs.Trace.with_ ~name:"server.fold" ~cat:"server" (fun () ->
              fold_batch t b)
        end
        else fold_batch t b;
        Ingest.done_with t.queue;
        go ()
  in
  go ()

let close t = Ingest.close t.queue
let quiesce t = Ingest.wait_idle t.queue

let merge_into t into =
  if List.length into <> Array.length t.itemsets then
    invalid_arg "Shard.merge_into: one accumulator per tracked itemset";
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (fun () ->
      List.iteri
        (fun j acc ->
          let k = t.ks.(j) in
          let layout = grown t.layouts.(j) (Array.length t.rows * (k + 1)) in
          t.layouts.(j) <- layout;
          Array.iteri
            (fun size n ->
              let off = size * (k + 1) in
              let hit = ref 0 in
              for l = 1 to k do
                hit := !hit + layout.(off + l)
              done;
              layout.(off) <- n - !hit)
            t.rows;
          Stream.add_layout acc ~scheme:t.scheme ~itemset:t.itemsets.(j)
            ~observed:t.folded layout)
        into)

let folded t =
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (fun () -> t.folded)

let depth t = Ingest.depth t.queue
