open Ppdm_prng
open Ppdm_data
open Ppdm

type 'a t = {
  gen : Rng.t -> size:int -> 'a;
  shrink : 'a -> 'a Seq.t;
  print : 'a -> string;
}

let no_shrink _ = Seq.empty

let make ?(shrink = no_shrink) ?(print = fun _ -> "<opaque>") gen =
  { gen; shrink; print }

let generate t rng ~size = t.gen rng ~size
let shrink t x = t.shrink x
let print t x = t.print x

(* ------------------------------------------------------ base combinators *)

let return ?print x = make ?print (fun _ ~size:_ -> x)

(* Shrink an int toward [lo]: the bound itself, the midpoint, one less. *)
let shrink_int ~lo x =
  List.to_seq
    (List.sort_uniq compare
       (List.filter
          (fun y -> y >= lo && y < x)
          [ lo; lo + ((x - lo) / 2); x - 1 ]))

let int_range lo hi =
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  make ~shrink:(shrink_int ~lo) ~print:string_of_int (fun rng ~size:_ ->
      Rng.int_in_range rng ~lo ~hi)

let float_range lo hi =
  if lo > hi then invalid_arg "Gen.float_range: lo > hi";
  make ~print:string_of_float (fun rng ~size:_ ->
      lo +. ((hi -. lo) *. Rng.float rng))

let bool =
  make
    ~shrink:(fun b -> if b then Seq.return false else Seq.empty)
    ~print:string_of_bool
    (fun rng ~size:_ -> Rng.bool rng)

let pair a b =
  let gen rng ~size =
    let x = a.gen rng ~size in
    let y = b.gen rng ~size in
    (x, y)
  in
  let shrink (x, y) =
    Seq.append
      (Seq.map (fun x' -> (x', y)) (a.shrink x))
      (Seq.map (fun y' -> (x, y')) (b.shrink y))
  in
  let print (x, y) = Printf.sprintf "(%s, %s)" (a.print x) (b.print y) in
  make ~shrink ~print gen

let shrink_list shrink_elt l =
  let n = List.length l in
  if n = 0 then Seq.empty
  else
    let halves =
      if n >= 2 then
        List.to_seq
          [
            List.filteri (fun j _ -> j < n / 2) l;
            List.filteri (fun j _ -> j >= n / 2) l;
          ]
      else Seq.return []
    in
    let drops = Seq.init n (fun i -> List.filteri (fun j _ -> j <> i) l) in
    let elems =
      Seq.concat
        (Seq.init n (fun i ->
             let x = List.nth l i in
             Seq.map
               (fun x' -> List.mapi (fun j y -> if j = i then x' else y) l)
               (shrink_elt x)))
    in
    Seq.append halves (Seq.append drops elems)

let list ?(max_len = 100) elt =
  let gen rng ~size =
    let cap = max 0 (min max_len size) in
    let n = Rng.int rng (cap + 1) in
    List.init n (fun _ -> elt.gen rng ~size)
  in
  let print l = "[" ^ String.concat "; " (List.map elt.print l) ^ "]" in
  make ~shrink:(shrink_list elt.shrink) ~print gen

let map ?shrink ?print f t =
  make ?shrink ?print (fun rng ~size -> f (t.gen rng ~size))

(* ------------------------------------------------------ domain generators *)

let item ~universe =
  if universe <= 0 then invalid_arg "Gen.item: universe must be positive";
  int_range 0 (universe - 1)

let shrink_itemset s =
  Seq.map Itemset.of_list (shrink_list no_shrink (Itemset.to_list s))

let itemset ~universe =
  if universe <= 0 then invalid_arg "Gen.itemset: universe must be positive";
  let gen rng ~size =
    let card = Rng.int rng (min universe (max 1 size) + 1) in
    (* of_array dedups, so the realized cardinality may be smaller *)
    Itemset.of_array (Array.init card (fun _ -> Rng.int rng universe))
  in
  make ~shrink:shrink_itemset ~print:Itemset.to_string gen

let transaction = itemset

(* A uniformly random [card]-subset via a partial Fisher-Yates shuffle. *)
let random_subset rng ~universe ~card =
  let idx = Array.init universe Fun.id in
  for i = 0 to card - 1 do
    let j = Rng.int_in_range rng ~lo:i ~hi:(universe - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Itemset.of_array (Array.sub idx 0 card)

let fixed_size_transaction ~universe ~card =
  if card < 0 || card > universe then
    invalid_arg "Gen.fixed_size_transaction: card outside [0, universe]";
  make ~print:Itemset.to_string (fun rng ~size:_ ->
      random_subset rng ~universe ~card)

let db_to_string db =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "universe %d transactions %d\n" (Db.universe db)
       (Db.length db));
  Db.iter
    (fun tx ->
      Buffer.add_string buf
        (String.concat " " (List.map string_of_int (Itemset.to_list tx)));
      Buffer.add_char buf '\n')
    db;
  Buffer.contents buf

(* Shrink a database by shrinking its row list (drop transactions, then
   thin individual transactions); the universe is preserved. *)
let shrink_db db =
  let universe = Db.universe db in
  let rows = Array.to_list (Db.transactions db) in
  Seq.map
    (fun rows -> Db.create ~universe (Array.of_list rows))
    (shrink_list shrink_itemset rows)

let db ?(min_universe = 2) ~max_universe ~max_transactions () =
  if min_universe < 1 || max_universe < min_universe then
    invalid_arg "Gen.db: bad universe bounds";
  let gen rng ~size =
    let universe = Rng.int_in_range rng ~lo:min_universe ~hi:max_universe in
    let cap = max 1 (min max_transactions size) in
    let n = Rng.int rng (cap + 1) in
    let tx _ =
      let card = Rng.int rng (min universe (max 1 (size / 2)) + 1) in
      Itemset.of_array (Array.init card (fun _ -> Rng.int rng universe))
    in
    Db.create ~universe (Array.init n tx)
  in
  make ~shrink:shrink_db ~print:db_to_string gen

let fixed_size_db ~universe ~card ~max_transactions =
  if card < 0 || card > universe then
    invalid_arg "Gen.fixed_size_db: card outside [0, universe]";
  let gen rng ~size =
    let cap = max 1 (min max_transactions size) in
    let n = 1 + Rng.int rng cap in
    Db.create ~universe
      (Array.init n (fun _ -> random_subset rng ~universe ~card))
  in
  let shrink db =
    let rows = Array.to_list (Db.transactions db) in
    Seq.filter_map
      (fun rows ->
        if rows = [] then None
        else Some (Db.create ~universe (Array.of_list rows)))
      (shrink_list no_shrink rows)
  in
  make ~shrink ~print:db_to_string gen

let min_support =
  make
    ~shrink:(fun s -> if s = 0.5 then Seq.empty else Seq.return 0.5)
    ~print:string_of_float
    (fun rng ~size:_ -> 0.05 +. (0.9 *. Rng.float rng))

let scheme ~universe =
  make ~print:Randomizer.name (fun rng ~size:_ ->
      if Rng.bool rng then
        let p_keep = 0.3 +. (0.65 *. Rng.float rng) in
        let p_add = 0.01 +. (0.3 *. Rng.float rng) in
        Randomizer.uniform ~universe ~p_keep ~p_add
      else
        let cutoff = 1 + Rng.int rng 5 in
        let rho = 0.05 +. (0.4 *. Rng.float rng) in
        Randomizer.cut_and_paste ~universe ~cutoff ~rho)

let permutation ~n =
  if n < 0 then invalid_arg "Gen.permutation: negative n";
  let print p =
    "[|" ^ String.concat ";" (Array.to_list (Array.map string_of_int p)) ^ "|]"
  in
  make ~print (fun rng ~size:_ ->
      let p = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = p.(i) in
        p.(i) <- p.(j);
        p.(j) <- tmp
      done;
      p)

(* --------------------------------------------------------- fuzz (text) *)

let shrink_string s =
  let n = String.length s in
  if n = 0 then Seq.empty
  else if n = 1 then Seq.return ""
  else List.to_seq [ String.sub s 0 (n / 2); String.sub s (n / 2) (n - (n / 2)) ]

let garbage_string =
  make ~shrink:shrink_string ~print:String.escaped (fun rng ~size ->
      let n = Rng.int rng (max 1 (2 * size) + 1) in
      String.init n (fun _ -> Char.chr (Rng.int rng 256)))

let almost_db_text =
  make ~shrink:shrink_string ~print:String.escaped (fun rng ~size ->
      let u = Rng.int_in_range rng ~lo:(-2) ~hi:20 in
      let c = Rng.int_in_range rng ~lo:(-2) ~hi:10 in
      let n_rows = Rng.int rng (max 1 size + 1) in
      let row _ =
        let len = Rng.int rng 6 in
        String.concat " "
          (List.init len (fun _ ->
               string_of_int (Rng.int_in_range rng ~lo:(-3) ~hi:25)))
      in
      Printf.sprintf "universe %d transactions %d\n%s\n" u c
        (String.concat "\n" (List.init n_rows row)))

let corrupt_scheme_text =
  make ~shrink:shrink_string ~print:String.escaped (fun rng ~size:_ ->
      let m = Rng.int_in_range rng ~lo:(-1) ~hi:6 in
      let rho = -1. +. (3. *. Rng.float rng) in
      let n_probs = Rng.int rng 9 in
      let probs =
        List.init n_probs (fun _ ->
            string_of_float (-0.5 +. (2. *. Rng.float rng)))
      in
      Printf.sprintf "ppdm-scheme 1\nuniverse 10\nname fuzz\nsize %d rho %g keep %s\n"
        m rho (String.concat " " probs))

(* ------------------------------------------------ databases from a model *)

let bernoulli_db rng ~item_probs ~count =
  let universe = Array.length item_probs in
  Array.iter
    (fun p ->
      if p < 0. || p > 1. then
        invalid_arg "Gen.bernoulli_db: probability out of [0,1]")
    item_probs;
  let make _ =
    let items = ref [] in
    for item = universe - 1 downto 0 do
      if Rng.float rng < item_probs.(item) then items := item :: !items
    done;
    Itemset.of_sorted_array_unchecked (Array.of_list !items)
  in
  Db.create ~universe (Array.init count make)
