(* 62 bits per word keeps all arithmetic well inside OCaml's 63-bit ints. *)
let bits_per_word = 62

let words_for width = (width + bits_per_word - 1) / bits_per_word

(* Branch-free SWAR popcount: no table, no lazy init, no loads — the
   counting engines call this once per word of every intersection.  The
   64-bit masks do not fit OCaml's 63-bit int literals, so each is built
   from two 32-bit halves; the patterns (and the algorithm) remain correct
   for any 63-bit word because [lsr] shifts in zeros and the top 7-bit
   "byte" of the final multiply can hold counts up to 63.  Inlined here so
   [finish] does not pay a call per word. *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = (0x33333333 lsl 32) lor 0x33333333
let m4 = (0x0F0F0F0F lsl 32) lor 0x0F0F0F0F
let h01 = (0x01010101 lsl 32) lor 0x01010101

let[@inline] popcount v =
  let v = v - ((v lsr 1) land m1) in
  let v = (v land m2) + ((v lsr 2) land m2) in
  let v = (v + (v lsr 4)) land m4 in
  (v * h01) lsr 56

(* The one definition of the trailing-word mask: every bitmap in the
   repo (the vertical engine's, the dense PPDMC payloads) keeps the bits
   above its width zero, and this is the mask they zero against. *)
let last_word_mask ~width =
  if width <= 0 then invalid_arg "Bitset.last_word_mask: width must be positive";
  let tail = width mod bits_per_word in
  if tail = 0 then (1 lsl bits_per_word) - 1 else (1 lsl tail) - 1

let dense_for ?(cutoff = 1.0 /. float_of_int bits_per_word) ~n count =
  n > 0 && float_of_int count >= cutoff *. float_of_int n

(* [filled.(i)] is the next free slot of sparse item [i]'s tid array.
   Counts are checked once, in [finish]: checking each item's count in
   the row loop made the report store's freeze measurably slower. *)
type builder = {
  n : int;
  counts : int array;
  dense : bool array;
  payloads : int array array;
  filled : int array;
}

let builder ?cutoff ~n counts =
  let dense = Array.map (dense_for ?cutoff ~n) counts in
  let n_words = words_for n in
  {
    n;
    counts;
    dense;
    payloads =
      Array.mapi (fun i c -> Array.make (if dense.(i) then n_words else c) 0) counts;
    filled = Array.make (Array.length counts) 0;
  }

(* No call in the row loop: one would make every value in it spill to
   the stack.  An item past its count is flagged and raised after it. *)
let fill_row b ~tid items ~off ~len =
  if tid < 0 || tid >= b.n then invalid_arg "Bitset.fill_row: tid outside [0, n)";
  let dense = b.dense and payloads = b.payloads and filled = b.filled in
  let w = tid / bits_per_word and bit = 1 lsl (tid mod bits_per_word) in
  let overfull = ref false in
  for p = off to off + len - 1 do
    let item = items.(p) in
    let payload = payloads.(item) in
    if dense.(item) then payload.(w) <- payload.(w) lor bit
    else begin
      let k = filled.(item) in
      if k < Array.length payload then begin
        payload.(k) <- tid;
        filled.(item) <- k + 1
      end
      else overfull := true
    end
  done;
  if !overfull then invalid_arg "Bitset.fill_row: item fed more rows than its count"

let finish b =
  Array.iteri
    (fun i payload ->
      let held =
        if b.dense.(i) then begin
          let acc = ref 0 in
          for w = 0 to Array.length payload - 1 do
            acc := !acc + popcount payload.(w)
          done;
          !acc
        end
        else b.filled.(i)
      in
      if held <> b.counts.(i) then
        invalid_arg "Bitset.finish: an item does not hold its count")
    b.payloads;
  b.payloads
