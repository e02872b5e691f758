let rec poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: negative mean";
  if mean = 0. then 0
  else if mean < 500. then (
    let threshold = exp (-.mean) in
    let k = ref 0 and prod = ref (Rng.float rng) in
    while !prod > threshold do
      incr k;
      prod := !prod *. Rng.float rng
    done;
    !k)
  else
    (* Split large means to keep the product method in range. *)
    poisson rng ~mean:(mean /. 2.) + poisson rng ~mean:(mean /. 2.)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  -.log (1. -. Rng.float rng) /. rate

let normal rng ~mean ~std =
  let u1 = 1. -. Rng.float rng and u2 = Rng.float rng in
  mean +. (std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Int_set = Hashtbl.Make (Int)

let sample_distinct rng ~k ~bound =
  if k < 0 || k > bound then invalid_arg "Dist.sample_distinct: bad k";
  (* Floyd's algorithm: k hash operations, uniform over k-subsets.  The
     chosen set depends only on the draws; it is returned sorted, so the
     table's iteration order never shows. *)
  let chosen = Int_set.create (2 * k) in
  for j = bound - k to bound - 1 do
    let v = Rng.int rng (j + 1) in
    Int_set.replace chosen (if Int_set.mem chosen v then j else v) ()
  done;
  let out = Array.make k 0 in
  let idx = ref 0 in
  Int_set.iter
    (fun v () ->
      out.(!idx) <- v;
      incr idx)
    chosen;
  Array.sort Int.compare out;
  out

let subset rng ~k arr =
  let indices = sample_distinct rng ~k ~bound:(Array.length arr) in
  Array.map (fun i -> arr.(i)) indices

type discrete = { prob : float array; alias : int array }

let discrete weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.discrete: empty weights";
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Dist.discrete: weights sum to zero";
  Array.iter
    (fun w -> if w < 0. then invalid_arg "Dist.discrete: negative weight")
    weights;
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1. and alias = Array.init n (fun i -> i) in
  let small = Queue.create () and large = Queue.create () in
  Array.iteri
    (fun i s -> if s < 1. then Queue.add i small else Queue.add i large)
    scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small and l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then Queue.add l small else Queue.add l large
  done;
  (* Remaining entries keep prob = 1 (self-alias); numerically exact. *)
  { prob; alias }

(* [Rng.float] drawn as [bits53] and scaled here, the same value with no
   float boxed across the module boundary: the randomizer calls this once
   per transaction. *)
let discrete_sample rng { prob; alias } =
  let n = Array.length prob in
  let i = Rng.int rng n in
  if float_of_int (Rng.bits53 rng) *. 0x1p-53 < prob.(i) then i else alias.(i)

type zipf = { cdf : float array }

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { cdf }

let zipf_sample rng { cdf } =
  let u = Rng.float rng in
  (* First index whose CDF value exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo
