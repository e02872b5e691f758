(* Order statistics for every reported number. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [q]-quantile by linear interpolation between closest ranks. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile xs 0.5

(* First and third quartile the way Python's
   [statistics.quantiles(xs, n=4)] computes them (its default "exclusive"
   method), so spreads printed here match spreads computed elsewhere from
   the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else begin
    let m = n + 1 in
    let at i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (at 1, at 3)
  end
