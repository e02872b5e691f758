(* 62 bits per word keeps all arithmetic well inside OCaml's 63-bit ints. *)
let bits_per_word = 62

type t = { width : int; words : int array }

let words_for width = (width + bits_per_word - 1) / bits_per_word

let create ~width =
  if width <= 0 then invalid_arg "Bitset.create: width must be positive";
  { width; words = Array.make (words_for width) 0 }

let width t = t.width

let check_item t item =
  if item < 0 || item >= t.width then
    invalid_arg "Bitset: item outside the width"

let mem item t =
  check_item t item;
  t.words.(item / bits_per_word) lsr (item mod bits_per_word) land 1 = 1

let add item t =
  check_item t item;
  let words = Array.copy t.words in
  let w = item / bits_per_word in
  words.(w) <- words.(w) lor (1 lsl (item mod bits_per_word));
  { t with words }

let remove item t =
  check_item t item;
  let words = Array.copy t.words in
  let w = item / bits_per_word in
  words.(w) <- words.(w) land lnot (1 lsl (item mod bits_per_word));
  { t with words }

let of_itemset ~width set =
  let t = create ~width in
  Itemset.iter
    (fun item ->
      if item >= width then invalid_arg "Bitset.of_itemset: item outside width";
      let w = item / bits_per_word in
      t.words.(w) <- t.words.(w) lor (1 lsl (item mod bits_per_word)))
    set;
  t

(* Branch-free SWAR popcount: no table, no lazy init, no loads — the
   counting engines call this once per word of every intersection.  The
   64-bit masks do not fit OCaml's 63-bit int literals, so each is built
   from two 32-bit halves; the patterns (and the algorithm) remain correct
   for any 63-bit word because [lsr] shifts in zeros and the top 7-bit
   "byte" of the final multiply can hold counts up to 63. *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = (0x33333333 lsl 32) lor 0x33333333
let m4 = (0x0F0F0F0F lsl 32) lor 0x0F0F0F0F
let h01 = (0x01010101 lsl 32) lor 0x01010101

let popcount v =
  let v = v - ((v lsr 1) land m1) in
  let v = (v land m2) + ((v lsr 2) land m2) in
  let v = (v + (v lsr 4)) land m4 in
  (v * h01) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let check_widths name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bitset.%s: width mismatch" name)

let zip name f a b =
  check_widths name a b;
  { a with words = Array.mapi (fun i w -> f w b.words.(i)) a.words }

let union = zip "union" ( lor )
let inter = zip "inter" ( land )
let diff = zip "diff" (fun x y -> x land lnot y)

(* The one definition of the trailing-word mask: every packed
   representation in the repo (this module, the vertical engine's
   bitmaps, the dense PPDMC payloads) keeps the bits above its width
   zero, and this is the mask they zero against. *)
let last_word_mask ~width =
  if width <= 0 then invalid_arg "Bitset.last_word_mask: width must be positive";
  let tail = width mod bits_per_word in
  if tail = 0 then (1 lsl bits_per_word) - 1 else (1 lsl tail) - 1

let dense_for ?(cutoff = 1.0 /. float_of_int bits_per_word) ~n count =
  n > 0 && float_of_int count >= cutoff *. float_of_int n

let complement t =
  (* [lnot] also sets the bits above the width (up to OCaml's 63); mask
     both the word width and the partial tail word so the all-zero-padding
     invariant every other operation relies on still holds. *)
  let full = (1 lsl bits_per_word) - 1 in
  let words = Array.map (fun w -> lnot w land full) t.words in
  let last = Array.length words - 1 in
  words.(last) <- words.(last) land last_word_mask ~width:t.width;
  { t with words }

let inter_cardinal a b =
  check_widths "inter_cardinal" a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let subset a b =
  check_widths "subset" a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let equal a b = a.width = b.width && a.words = b.words
let is_empty t = Array.for_all (( = ) 0) t.words

let fold f t init =
  let acc = ref init in
  for item = 0 to t.width - 1 do
    if t.words.(item / bits_per_word) lsr (item mod bits_per_word) land 1 = 1
    then acc := f item !acc
  done;
  !acc

let to_itemset t =
  Itemset.of_sorted_array_unchecked
    (Array.of_list (List.rev (fold (fun i acc -> i :: acc) t [])))

let pp fmt t = Itemset.pp fmt (to_itemset t)
