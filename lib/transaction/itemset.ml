type item = int
type t = item array (* strictly increasing *)

let empty = [||]
let is_empty s = Array.length s = 0

let singleton x =
  if x < 0 then invalid_arg "Itemset.singleton: negative item";
  [| x |]

let dedup_sorted arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = ref 1 in
    for i = 1 to n - 1 do
      if arr.(i) <> arr.(!out - 1) then begin
        arr.(!out) <- arr.(i);
        incr out
      end
    done;
    if !out = n then arr else Array.sub arr 0 !out
  end

let of_array arr =
  Array.iter
    (fun x -> if x < 0 then invalid_arg "Itemset.of_array: negative item")
    arr;
  let copy = Array.copy arr in
  Array.sort compare copy;
  dedup_sorted copy

let of_list l = of_array (Array.of_list l)
let of_sorted_array_unchecked arr = arr
let to_list = Array.to_list
let to_array = Array.copy
let unsafe_to_array s = s
let cardinal = Array.length

let mem x s =
  let lo = ref 0 and hi = ref (Array.length s - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) = x then found := true
    else if s.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let inter_size a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    if a.(!i) = b.(!j) then begin
      incr k;
      incr i;
      incr j
    end
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  !k

let union a b =
  let la = Array.length a and lb = Array.length b in
  let buf = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x =
      if a.(!i) = b.(!j) then begin
        let x = a.(!i) in
        incr i;
        incr j;
        x
      end
      else if a.(!i) < b.(!j) then begin
        let x = a.(!i) in
        incr i;
        x
      end
      else begin
        let x = b.(!j) in
        incr j;
        x
      end
    in
    buf.(!k) <- x;
    incr k
  done;
  while !i < la do
    buf.(!k) <- a.(!i);
    incr k;
    incr i
  done;
  while !j < lb do
    buf.(!k) <- b.(!j);
    incr k;
    incr j
  done;
  Array.sub buf 0 !k

let diff a b =
  let la = Array.length a and lb = Array.length b in
  let buf = Array.make la 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    if a.(!i) = b.(!j) then begin
      incr i;
      incr j
    end
    else if a.(!i) < b.(!j) then begin
      buf.(!k) <- a.(!i);
      incr k;
      incr i
    end
    else incr j
  done;
  while !i < la do
    buf.(!k) <- a.(!i);
    incr k;
    incr i
  done;
  Array.sub buf 0 !k

let subset a b = inter_size a b = Array.length a
let equal a b = a = b

let compare a b =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare a b

let hash s = Hashtbl.hash s
let fold f s init = Array.fold_left (fun acc x -> f x acc) init s
let iter f s = Array.iter f s

let nth s i =
  if i < 0 || i >= Array.length s then invalid_arg "Itemset.nth: out of range";
  s.(i)

let subsets_of_size s k =
  let n = Array.length s in
  if k < 0 || k > n then []
  else begin
    let out = ref [] in
    let current = Array.make k 0 in
    (* Enumerate index combinations in decreasing lexicographic order so the
       accumulated list comes out increasing. *)
    let rec go pos start =
      if pos = k then out := Array.copy current :: !out
      else
        for i = start to n - (k - pos) do
          current.(pos) <- s.(i);
          go (pos + 1) (i + 1)
        done
    in
    go 0 0;
    List.rev !out
  end

let pp fmt s =
  Format.fprintf fmt "{";
  Array.iteri
    (fun i x -> Format.fprintf fmt "%s%d" (if i = 0 then "" else ",") x)
    s;
  Format.fprintf fmt "}"

let to_string s = Format.asprintf "%a" pp s
