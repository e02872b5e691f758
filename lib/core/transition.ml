open Ppdm_linalg

(* Every entry (l', l) of every B_j is a short sum over q of
   Hyp(q; m, l, j) · Bin(l' - q; k - l, ρ).  The basis keeps those
   factor pairs, entry-major (row-major over (l', l)), then j, then q
   ascending: entry e owns terms [starts.(e)] to [starts.(e+1) - 1], term
   t belonging to B_[js.(t)] with factors [hyps.(t)] and [bins.(t)].
   Weighting term by term, (p_j · Hyp) · Bin, adds the products of the
   entry-wise sum in its order, so the matrices match it bit for bit. *)
type basis = {
  m : int;
  rows : int;
  cols : int;
  starts : int array;
  js : int array;
  hyps : float array;
  bins : float array;
}

let basis ~m ~rho ~k =
  if m < 0 then invalid_arg "Transition.basis: negative m";
  if k < 0 then invalid_arg "Transition.basis: negative k";
  let rows = k + 1 and cols = min k m + 1 in
  let cap = (m + 1) * rows * cols * (cols + 1) in
  let js = Array.make cap 0 and hyps = Array.make cap 0. in
  let bins = Array.make cap 0. in
  let starts = Array.make ((rows * cols) + 1) 0 in
  let n = ref 0 in
  for l' = 0 to k do
    for l = 0 to cols - 1 do
      starts.((l' * cols) + l) <- !n;
      for j = 0 to m do
        (* q = kept items of A; needs q <= l, q <= j, and the binomial term
           needs l' - q in [0, k - l]. *)
        let q_lo = max 0 (l' - (k - l)) and q_hi = min l (min j l') in
        for q = q_lo to q_hi do
          let hyp = Binomial.hypergeom_pmf ~total:m ~good:l ~draws:j q in
          if hyp > 0. then begin
            js.(!n) <- j;
            hyps.(!n) <- hyp;
            bins.(!n) <- Binomial.binomial_pmf ~n:(k - l) ~p:rho (l' - q);
            incr n
          end
        done
      done
    done
  done;
  starts.(rows * cols) <- !n;
  {
    m;
    rows;
    cols;
    starts;
    js = Array.sub js 0 !n;
    hyps = Array.sub hyps 0 !n;
    bins = Array.sub bins 0 !n;
  }

let weighted_sum_into b keep_dist out =
  if Array.length keep_dist <> b.m + 1 then
    invalid_arg "Transition.weighted_sum: keep_dist length must be m + 1";
  if Array.length out <> b.rows * b.cols then
    invalid_arg "Transition.weighted_sum_into: out must have rows * cols entries";
  (* The operator search runs this per vertex.  Every index is in range
     by construction (the lengths are checked above, [starts] bounds the
     terms and [js] holds 0..m), so the reads skip the bounds check. *)
  let { starts; js; hyps; bins; _ } = b in
  for e = 0 to (b.rows * b.cols) - 1 do
    let acc = ref 0. in
    for t = Array.unsafe_get starts e to Array.unsafe_get starts (e + 1) - 1 do
      let pj = Array.unsafe_get keep_dist (Array.unsafe_get js t) in
      if pj > 0. then
        acc := !acc +. (pj *. Array.unsafe_get hyps t *. Array.unsafe_get bins t)
    done;
    Array.unsafe_set out e !acc
  done

let weighted_sum b keep_dist =
  let data = Array.make (b.rows * b.cols) 0. in
  weighted_sum_into b keep_dist data;
  Mat.of_flat ~rows:b.rows ~cols:b.cols data

let rect_matrix (r : Randomizer.resolved) ~k =
  if k < 0 then invalid_arg "Transition.rect_matrix: negative k";
  let m = Array.length r.keep_dist - 1 in
  weighted_sum (basis ~m ~rho:r.rho ~k) r.keep_dist

let matrix (r : Randomizer.resolved) ~k =
  let m = Array.length r.keep_dist - 1 in
  if k > m then
    invalid_arg "Transition.matrix: itemset larger than transaction size";
  rect_matrix r ~k

let of_scheme scheme ~size ~k = matrix (Randomizer.resolve scheme ~size) ~k

let is_column_stochastic ?(tolerance = 1e-9) m =
  let ok = ref true in
  for j = 0 to Mat.cols m - 1 do
    let sum = ref 0. in
    for i = 0 to Mat.rows m - 1 do
      let v = Mat.get m i j in
      if v < -.tolerance then ok := false;
      sum := !sum +. v
    done;
    if Float.abs (!sum -. 1.) > tolerance then ok := false
  done;
  !ok
