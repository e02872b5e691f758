type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive size";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_flat ~rows ~cols data =
  if rows <= 0 || cols <= 0 || Array.length data <> rows * cols then
    invalid_arg "Mat.of_flat: size mismatch";
  { rows; cols; data }

let flat m = m.data

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: index out of bounds";
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }
let transpose m =
  let t = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      t.data.((j * m.rows) + i) <- m.data.((i * m.cols) + j)
    done
  done;
  t

let same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch" name)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  let m = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for l = 0 to a.cols - 1 do
      let ail = a.data.((i * a.cols) + l) in
      if ail <> 0. then
        for j = 0 to b.cols - 1 do
          m.data.((i * b.cols) + j) <-
            m.data.((i * b.cols) + j) +. (ail *. b.data.((l * b.cols) + j))
        done
    done
  done;
  m

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: index out of bounds";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let max_abs_diff a b =
  same_shape "max_abs_diff" a b;
  let acc = ref 0. in
  Array.iteri
    (fun i x -> acc := Float.max !acc (Float.abs (x -. b.data.(i))))
    a.data;
  !acc

let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.rows - 1 do
    let s = ref 0. in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !s
  done;
  !best
