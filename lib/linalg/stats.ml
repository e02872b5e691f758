let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let std xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.std: need at least two samples";
  let m = mean xs in
  let acc = ref 0. in
  Array.iter
    (fun x ->
      let d = x -. m in
      acc := !acc +. (d *. d))
    xs;
  sqrt (!acc /. float_of_int (n - 1))

let rmse xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Stats.rmse: length mismatch";
  if n = 0 then invalid_arg "Stats.rmse: empty sample";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. ys.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

(* Acklam's inverse-normal-CDF approximation: three rational pieces. *)
let normal_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Stats.normal_quantile: argument must be in (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let tail q sign =
    let u = sqrt (-2. *. log q) in
    sign
    *. ((((((c.(0) *. u) +. c.(1)) *. u +. c.(2)) *. u +. c.(3)) *. u +. c.(4)) *. u +. c.(5))
    /. ((((d.(0) *. u +. d.(1)) *. u +. d.(2)) *. u +. d.(3)) *. u +. 1.)
  in
  if p < p_low then tail p 1.
  else if p > 1. -. p_low then tail (1. -. p) (-1.)
  else begin
    let q = p -. 0.5 in
    let r = q *. q in
    q
    *. ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)
  end
