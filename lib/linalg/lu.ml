(* [lu] holds the n × n factors row-major: the unit-diagonal L strictly
   below the diagonal, U on and above it.  [x] is a row of scratch. *)
type t = { n : int; lu : float array; perm : int array; x : float array }

exception Singular

let create n =
  if n < 1 then invalid_arg "Lu.create: size must be positive";
  {
    n;
    lu = Array.make (n * n) 0.;
    perm = Array.make n 0;
    x = Array.make n 0.;
  }

(* The one factorization routine: Gaussian elimination with partial
   pivoting, in place on the flat [lu].  The update loop here and in
   [forward] runs per vertex of the operator search; its indices stay
   below n², so it skips the bounds check. *)
let factor_in_place { n; lu; perm; _ } =
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry of column k up. *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.((i * n) + k) > Float.abs lu.((!pivot_row * n) + k) then
        pivot_row := i
    done;
    let p = !pivot_row in
    if p <> k then begin
      for j = 0 to n - 1 do
        let tmp = lu.((k * n) + j) in
        lu.((k * n) + j) <- lu.((p * n) + j);
        lu.((p * n) + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp
    end;
    let pivot = lu.((k * n) + k) in
    if pivot = 0. then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = lu.((i * n) + k) /. pivot in
      lu.((i * n) + k) <- factor;
      for j = k + 1 to n - 1 do
        Array.unsafe_set lu ((i * n) + j)
          (Array.unsafe_get lu ((i * n) + j)
          -. (factor *. Array.unsafe_get lu ((k * n) + j)))
      done
    done
  done

let factor t a =
  if Array.length a <> t.n * t.n then invalid_arg "Lu.factor: size mismatch";
  Array.blit a 0 t.lu 0 (t.n * t.n);
  factor_in_place t

let decompose m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.decompose: matrix is not square";
  let t = create n in
  factor t (Mat.flat m);
  t

(* Forward substitution with the unit-diagonal L, in place. *)
let forward t x =
  let n = t.n and lu = t.lu in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      Array.unsafe_set x i
        (Array.unsafe_get x i
        -. (Array.unsafe_get lu ((i * n) + j) *. Array.unsafe_get x j))
    done
  done

let solve t b =
  let n = t.n in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(t.perm.(i))) in
  forward t x;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (t.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- x.(i) /. t.lu.((i * n) + i)
  done;
  x

let solve_mat t b =
  let n = t.n in
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
  let n = t.n in
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
let inverse_last_row t out =
  let n = t.n and x = t.x in
  if Array.length out <> n then invalid_arg "Lu.inverse_last_row: dimension mismatch";
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      x.(i) <- (if t.perm.(i) = j then 1. else 0.)
    done;
    forward t x;
    out.(j) <- x.(n - 1) /. t.lu.((n * n) - 1)
  done
