type t = { universe : int; transactions : Itemset.t array }

let create ~universe transactions =
  if universe <= 0 then invalid_arg "Db.create: universe must be positive";
  Array.iter
    (fun tx ->
      if (not (Itemset.is_empty tx)) && Itemset.nth tx (Itemset.cardinal tx - 1) >= universe
      then invalid_arg "Db.create: item outside the universe")
    transactions;
  { universe; transactions }

let universe db = db.universe
let length db = Array.length db.transactions

let get db i =
  if i < 0 || i >= length db then invalid_arg "Db.get: index out of bounds";
  db.transactions.(i)

let transactions db = db.transactions
let iter f db = Array.iter f db.transactions
let iteri f db = Array.iteri f db.transactions
let fold f init db = Array.fold_left f init db.transactions
let map f db = { db with transactions = Array.map f db.transactions }

let filter p db =
  {
    db with
    transactions =
      Array.of_list (List.filter p (Array.to_list db.transactions));
  }

let sub db ~pos ~len =
  { db with transactions = Array.sub db.transactions pos len }

let append a b =
  if a.universe <> b.universe then invalid_arg "Db.append: universe mismatch";
  { a with transactions = Array.append a.transactions b.transactions }

let support_count db a =
  fold (fun acc tx -> if Itemset.subset a tx then acc + 1 else acc) 0 db

let support db a =
  if length db = 0 then 0.
  else float_of_int (support_count db a) /. float_of_int (length db)

let partial_support_counts db a =
  let k = Itemset.cardinal a in
  let counts = Array.make (k + 1) 0 in
  iter
    (fun tx ->
      let l = Itemset.inter_size a tx in
      counts.(l) <- counts.(l) + 1)
    db;
  counts

let item_counts db =
  let counts = Array.make db.universe 0 in
  iter (Itemset.iter (fun x -> counts.(x) <- counts.(x) + 1)) db;
  counts

(* Counted in an array indexed by size: no allocation per transaction. *)
let size_histogram db =
  let largest = fold (fun acc tx -> max acc (Itemset.cardinal tx)) 0 db in
  let hist = Array.make (largest + 1) 0 in
  iter
    (fun tx ->
      let m = Itemset.cardinal tx in
      hist.(m) <- hist.(m) + 1)
    db;
  List.filter (fun (_, c) -> c > 0)
    (List.init (largest + 1) (fun m -> (m, hist.(m))))

let density db =
  if length db = 0 then 0.
  else
    float_of_int (fold (fun acc tx -> acc + Itemset.cardinal tx) 0 db)
    /. float_of_int (length db * db.universe)

let split db ~at =
  if at < 0 || at > length db then invalid_arg "Db.split: index out of bounds";
  ( { db with transactions = Array.sub db.transactions 0 at },
    { db with transactions = Array.sub db.transactions at (length db - at) } )

let avg_size db =
  if length db = 0 then 0.
  else
    float_of_int (fold (fun acc tx -> acc + Itemset.cardinal tx) 0 db)
    /. float_of_int (length db)

let item_frequency_quantiles db qs =
  if length db = 0 then invalid_arg "Db.item_frequency_quantiles: empty database";
  let n = float_of_int (length db) in
  let freqs = Array.map (fun c -> float_of_int c /. n) (item_counts db) in
  (* Stats lives above this library, so compute the quantiles locally with
     the same interpolation convention. *)
  let sorted = Array.copy freqs in
  Array.sort Float.compare sorted;
  List.map
    (fun q ->
      if q < 0. || q > 1. then
        invalid_arg "Db.item_frequency_quantiles: quantile out of [0,1]";
      let pos = q *. float_of_int (Array.length sorted - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (Array.length sorted - 1) in
      let frac = pos -. float_of_int lo in
      ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi)))
    qs
