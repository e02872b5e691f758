(* Memoized table of ln n!.  Grown geometrically; exact summation keeps the
   relative error at the float rounding level for all n we use.  Domains
   may grow it at once: each reads the table it grew (or found) and
   published through the atomic, and every table holds the same values at
   the same indices, so whichever is published last only costs a regrow. *)
let table = Atomic.make [| 0. |]

let ensure n =
  let cur = Atomic.get table in
  let have = Array.length cur in
  if n < have then cur
  else begin
    let t = Array.make (max (n + 1) (2 * have)) 0. in
    Array.blit cur 0 t 0 have;
    for i = have to Array.length t - 1 do
      t.(i) <- t.(i - 1) +. log (float_of_int i)
    done;
    Atomic.set table t;
    t
  end

let log_factorial n =
  if n < 0 then invalid_arg "Binomial.log_factorial: negative argument";
  (ensure n).(n)

let log_choose n k =
  if k < 0 || k > n || n < 0 then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

(* [k ln p], with [log_pow 0. 0 = 0.] so that [exp] of it is [p^k]
   including [0^0 = 1]. *)
let log_pow p k =
  if k = 0 then 0.
  else if p <= 0. then neg_infinity
  else float_of_int k *. log p

let binomial_pmf ~n ~p k =
  if k < 0 || k > n then 0.
  else if p <= 0. then if k = 0 then 1. else 0.
  else if p >= 1. then if k = n then 1. else 0.
  else exp (log_choose n k +. log_pow p k +. log_pow (1. -. p) (n - k))

let hypergeom_pmf ~total ~good ~draws q =
  if
    q < 0 || q > good || q > draws
    || draws - q > total - good
    || draws > total || good > total
  then 0.
  else
    exp
      (log_choose good q
      +. log_choose (total - good) (draws - q)
      -. log_choose total draws)
