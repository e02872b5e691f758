(* Written as a positive test so NaN, which fails every comparison, is
   rejected too. *)
let check_min_support ~who min_support =
  if not (min_support > 0. && min_support <= 1.) then
    invalid_arg (who ^ ": min_support out of (0,1]")

let absolute ~n ~min_support =
  check_min_support ~who:"Threshold.absolute" min_support;
  if n < 0 then invalid_arg "Threshold.absolute: negative n";
  max 1 (int_of_float (Float.ceil ((min_support *. float_of_int n) -. 1e-9)))
