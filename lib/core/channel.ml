open Ppdm_prng
open Ppdm_linalg

type t = {
  matrix : Mat.t; (* entry (y, x) = P(y | x) *)
  samplers : Dist.discrete array Lazy.t; (* one alias table per input *)
}

let validate m =
  for x = 0 to Mat.cols m - 1 do
    let total = ref 0. in
    for y = 0 to Mat.rows m - 1 do
      let v = Mat.get m y x in
      if v < 0. then invalid_arg "Channel.create: negative probability";
      total := !total +. v
    done;
    if Float.abs (!total -. 1.) > 1e-9 then
      invalid_arg "Channel.create: column does not sum to 1"
  done

let of_matrix m =
  {
    matrix = m;
    samplers =
      lazy
        (Array.init (Mat.cols m) (fun x ->
             Dist.discrete (Mat.col m x)));
  }

let create m =
  validate m;
  of_matrix (Mat.copy m)

let inputs t = Mat.cols t.matrix
let outputs t = Mat.rows t.matrix

let matrix t = Mat.copy t.matrix

(* Amplification restricted to output [y]. *)
let gamma_for_output t ~y =
  let hi = ref 0. and lo = ref infinity in
  for x = 0 to inputs t - 1 do
    let v = Mat.get t.matrix y x in
    if v > !hi then hi := v;
    if v < !lo then lo := v
  done;
  if !hi = 0. then 1. (* unreachable output: vacuous *)
  else if !lo = 0. then infinity
  else !hi /. !lo

let gamma t =
  let worst = ref 1. in
  for y = 0 to outputs t - 1 do
    let g = gamma_for_output t ~y in
    if g > !worst then worst := g
  done;
  !worst

let geometric_noise ~size ~alpha =
  if size < 1 then invalid_arg "Channel.geometric_noise: empty domain";
  if alpha <= 0. || alpha >= 1. then
    invalid_arg "Channel.geometric_noise: alpha must be in (0,1)";
  let m =
    Mat.init ~rows:size ~cols:size (fun y x ->
        Float.pow alpha (float_of_int (abs (y - x))))
  in
  (* normalize each column *)
  let normalized =
    Mat.init ~rows:size ~cols:size (fun y x ->
        let total = ref 0. in
        for y' = 0 to size - 1 do
          total := !total +. Mat.get m y' x
        done;
        Mat.get m y x /. !total)
  in
  of_matrix normalized

let apply t rng x =
  if x < 0 || x >= inputs t then invalid_arg "Channel.apply: symbol out of range";
  Dist.discrete_sample rng (Lazy.force t.samplers).(x)

let estimate_em ?(max_iterations = 10_000) ?(tolerance = 1e-10) t ~counts =
  if Array.length counts <> outputs t then
    invalid_arg "Channel.estimate_em: counts dimension mismatch";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then invalid_arg "Channel.estimate_em: empty counts";
  let d = inputs t in
  let s = Array.make d (1. /. float_of_int d) in
  let iterations = ref 0 and converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let next = Array.make d 0. in
    Array.iteri
      (fun y c ->
        if c > 0 then begin
          let mix = ref 0. in
          for x = 0 to d - 1 do
            mix := !mix +. (s.(x) *. Mat.get t.matrix y x)
          done;
          if !mix > 0. then
            for x = 0 to d - 1 do
              next.(x) <-
                next.(x)
                +. (float_of_int c *. s.(x) *. Mat.get t.matrix y x /. !mix)
            done
        end)
      counts;
    let total = Array.fold_left ( +. ) 0. next in
    let delta = ref 0. in
    for x = 0 to d - 1 do
      let v = if total > 0. then next.(x) /. total else s.(x) in
      delta := Float.max !delta (Float.abs (v -. s.(x)));
      s.(x) <- v
    done;
    if !delta < tolerance then converged := true
  done;
  s
