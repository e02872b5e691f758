type t = { lu : float array array; perm : int array; sign : float }

exception Singular

let decompose m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.decompose: matrix is not square";
  let lu = Mat.to_arrays m in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry of column k up. *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!pivot_row).(k) then
        pivot_row := i
    done;
    if !pivot_row <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot_row);
      lu.(!pivot_row) <- tmp;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let pivot = lu.(k).(k) in
    if pivot = 0. then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = lu.(i).(k) /. pivot in
      lu.(i).(k) <- factor;
      for j = k + 1 to n - 1 do
        lu.(i).(j) <- lu.(i).(j) -. (factor *. lu.(k).(j))
      done
    done
  done;
  { lu; perm; sign = !sign }

let dim t = Array.length t.lu

(* Forward substitution with the unit-diagonal L, in place. *)
let forward t x =
  for i = 1 to Array.length x - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (t.lu.(i).(j) *. x.(j))
    done
  done

let solve t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(t.perm.(i))) in
  forward t x;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (t.lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. t.lu.(i).(i)
  done;
  x

let solve_mat t b =
  let n = dim t in
  if Mat.rows b <> n then invalid_arg "Lu.solve_mat: dimension mismatch";
  let cols = Mat.cols b in
  let out = Mat.create ~rows:n ~cols in
  for j = 0 to cols - 1 do
    let x = solve t (Mat.col b j) in
    for i = 0 to n - 1 do
      Mat.set out i j x.(i)
    done
  done;
  out

let inverse t =
  let n = dim t in
  let out = Array.make (n * n) 0. in
  for j = 0 to n - 1 do
    let x = solve t (Array.init n (fun i -> if i = j then 1. else 0.)) in
    for i = 0 to n - 1 do
      out.((i * n) + j) <- x.(i)
    done
  done;
  Mat.of_flat ~rows:n ~cols:n out

(* Entry (n-1, j) of the inverse is the last component of [solve] on e_j:
   the whole forward pass, then only the first back-substitution step. *)
let inverse_last_row t =
  let n = dim t in
  let x = Array.make n 0. in
  Array.init n (fun j ->
      for i = 0 to n - 1 do
        x.(i) <- (if t.perm.(i) = j then 1. else 0.)
      done;
      forward t x;
      x.(n - 1) /. t.lu.(n - 1).(n - 1))

let det t =
  let n = dim t in
  let d = ref t.sign in
  for i = 0 to n - 1 do
    d := !d *. t.lu.(i).(i)
  done;
  !d

let cond_inf_estimate m =
  let inv = inverse (decompose m) in
  Mat.norm_inf m *. Mat.norm_inf inv
