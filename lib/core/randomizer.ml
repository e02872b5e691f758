open Ppdm_prng
open Ppdm_data
open Ppdm_linalg

type resolved = { keep_dist : float array; rho : float }

(* The validated operator for one size, with what [apply] needs to run it:
   the alias sampler of the keep size ([None] for the empty transaction,
   where there is no choice) and [log1p (-rho)] for the noise gaps. *)
type entry = { op : resolved; sampler : Dist.discrete option; log_q : float }

(* [cache.(size)] holds the entry of [size] once it has been produced;
   the array grows to the largest size resolved. *)
type t = {
  universe : int;
  name : string;
  produce : int -> resolved;
  mutable cache : entry option array;
}

let validate_resolved ~size { keep_dist; rho } =
  if Array.length keep_dist <> size + 1 then
    invalid_arg "Randomizer: keep_dist length must be size + 1";
  Array.iter
    (fun p ->
      if not (Float.is_finite p) then
        invalid_arg "Randomizer: keep probability is not finite";
      if p < 0. then invalid_arg "Randomizer: negative keep probability")
    keep_dist;
  let total = Array.fold_left ( +. ) 0. keep_dist in
  if Float.abs (total -. 1.) > 1e-9 then
    invalid_arg "Randomizer: keep_dist must sum to 1";
  (* negated so that a NaN rho fails too *)
  if not (rho >= 0. && rho <= 1.) then invalid_arg "Randomizer: rho out of [0,1]"

let make ~universe ~name produce =
  if universe <= 0 then invalid_arg "Randomizer: universe must be positive";
  { universe; name; produce; cache = [||] }

let cached t size =
  if size >= 0 && size < Array.length t.cache then t.cache.(size) else None

(* The entry of [size], produced and cached on a miss.  A hit is the
   caller's to count. *)
let entry t size =
  match cached t size with
  | Some entry -> entry
  | None ->
      Ppdm_obs.Metrics.incr "randomizer.cache.miss";
      let op = t.produce size in
      validate_resolved ~size op;
      let sampler = if size = 0 then None else Some (Dist.discrete op.keep_dist) in
      let entry = { op; sampler; log_q = Float.log1p (-.op.rho) } in
      if size >= Array.length t.cache then begin
        let grown = Array.make (max (size + 1) (2 * Array.length t.cache)) None in
        Array.blit t.cache 0 grown 0 (Array.length t.cache);
        t.cache <- grown
      end;
      t.cache.(size) <- Some entry;
      entry

let resolved_cached t size =
  if Option.is_some (cached t size) then
    Ppdm_obs.Metrics.incr "randomizer.cache.hit";
  entry t size

let universe t = t.universe
let name t = t.name

(* Structural equality of operator parameters at the given sizes.  Two
   schemes cannot be compared as values (an operator family is a
   closure), but at any concrete size the resolved parameters can; a
   scheme that does not cover a size compares unequal rather than
   raising.  Names are deliberately ignored: differently-built schemes
   with identical parameters are the same operator. *)
let same_parameters a b ~sizes =
  a.universe = b.universe
  && List.for_all
       (fun size ->
         match (resolved_cached a size, resolved_cached b size) with
         | { op = ra; _ }, { op = rb; _ } ->
             ra.rho = rb.rho && ra.keep_dist = rb.keep_dist
         | exception Invalid_argument _ -> false)
       sizes

(* A span (hence a timeline slice): warming runs serially before the
   parallel apply batches, and whether it dominates startup is exactly
   the kind of question the trace exists to answer. *)
let warm_cache t ~sizes =
  Ppdm_obs.Span.with_ ~name:"randomizer.warm" (fun () ->
      List.iter (fun size -> ignore (resolved_cached t size)) sizes)

let resolve t ~size =
  let r = (resolved_cached t size).op in
  { keep_dist = Array.copy r.keep_dist; rho = r.rho }

let expected_kept_fraction t ~size =
  if size = 0 then 1.
  else begin
    let r = (resolved_cached t size).op in
    let acc = ref 0. in
    Array.iteri (fun j p -> acc := !acc +. (p *. float_of_int j)) r.keep_dist;
    !acc /. float_of_int size
  end

let uniform ~universe ~p_keep ~p_add =
  if p_keep < 0. || p_keep > 1. then
    invalid_arg "Randomizer.uniform: p_keep out of [0,1]";
  let name = Printf.sprintf "uniform(p_keep=%g,p_add=%g)" p_keep p_add in
  make ~universe ~name (fun m ->
      {
        keep_dist = Array.init (m + 1) (Binomial.binomial_pmf ~n:m ~p:p_keep);
        rho = p_add;
      })

let select_a_size ~universe ~size ~keep_dist ~rho =
  if size < 0 then invalid_arg "Randomizer.select_a_size: negative size";
  let fixed = { keep_dist = Array.copy keep_dist; rho } in
  validate_resolved ~size fixed;
  let name = Printf.sprintf "select-a-size(m=%d,rho=%g)" size rho in
  make ~universe ~name (fun m ->
      if m = size then fixed
      else if m = 0 then { keep_dist = [| 1. |]; rho }
      else
        invalid_arg
          (Printf.sprintf
             "Randomizer.select_a_size: operator is for size %d, got %d" size m))

let cut_and_paste ~universe ~cutoff ~rho =
  if cutoff < 0 then invalid_arg "Randomizer.cut_and_paste: negative cutoff";
  let name = Printf.sprintf "cut-and-paste(K=%d,rho=%g)" cutoff rho in
  make ~universe ~name (fun m ->
      let keep_dist = Array.make (m + 1) 0. in
      let base = 1. /. float_of_int (cutoff + 1) in
      (* j = min(uniform{0..K}, m): uniform mass below m, clipped tail on m. *)
      for j0 = 0 to cutoff do
        let j = min j0 m in
        keep_dist.(j) <- keep_dist.(j) +. base
      done;
      { keep_dist; rho })

let per_size ~universe ~name produce = make ~universe ~name produce

(* Output buffer of the domain running [apply]: an output never exceeds the
   universe, so after the first call at a universe no call allocates
   anything but its exact-length result.  Two systhreads of one domain
   would share it; the library starts none. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch universe =
  let buf = Domain.DLS.get scratch_key in
  if Array.length !buf < universe then buf := Array.make universe 0;
  !buf

(* The complement rank after [rank] that receives noise: every rank enters
   independently with probability rho, so the gap to the next one is
   Geometric(rho), drawn by inversion as floor (log u / log (1 - rho)).
   [n] once the gap runs past the last rank [n - 1]; the comparison is in
   floating point, so a gap of 1e300 (rho = 1e-300) cannot overflow
   [int_of_float].  rho = 0 never gets here, and rho = 1 draws nothing. *)
let[@inline] next_noise rng ~log_q ~n rank =
  if log_q = Float.neg_infinity then rank + 1
  else
    let u = float_of_int ((1 lsl 53) - Rng.bits53 rng) *. 0x1p-53 in
    let gap = Float.log u /. log_q in
    if gap >= float_of_int (n - rank - 1) then n else rank + 1 + int_of_float gap

(* One merge walk over the transaction items and the noise, in item order.
   The j kept items come from selection sampling (Knuth's Algorithm S):
   with [need] items still to keep and [left] still to see, keep the next
   one with probability need/left, which makes every j-subset equally
   likely.  Noise is drawn as increasing ranks in the complement
   universe \ t; the rank-r complement item is r + (items of t <= it), so
   a pointer into t maps ranks to items as both advance.  Together each
   complement item enters with probability rho independently of the rest,
   which is the select-a-size operator: p(t -> y) is unchanged.  The size
   is checked before the operator is resolved, so an impossible size
   never reaches [produce] or the cache. *)
let apply_into t rng tx buf ~off =
  let m = Itemset.cardinal tx in
  if m > t.universe then invalid_arg "Randomizer.apply: transaction too large";
  if off < 0 || Array.length buf - off < t.universe then
    invalid_arg "Randomizer.apply_into: fewer than universe slots after off";
  let e = entry t m in
  let j =
    match e.sampler with None -> 0 | Some s -> Dist.discrete_sample rng s
  in
  let items = Itemset.unsafe_to_array tx in
  let n = t.universe - m and log_q = e.log_q in
  let len = ref off and need = ref j and pos = ref 0 in
  let rank = ref (if e.op.rho = 0. then n else next_noise rng ~log_q ~n (-1)) in
  while !pos < m || !rank < n do
    if !pos < m && (!rank >= n || items.(!pos) <= !rank + !pos) then begin
      let left = m - !pos in
      if !need > 0 && (!need = left || Rng.int rng left < !need) then begin
        buf.(!len) <- items.(!pos);
        incr len;
        decr need
      end;
      incr pos
    end
    else begin
      buf.(!len) <- !rank + !pos;
      incr len;
      rank := next_noise rng ~log_q ~n !rank
    end
  done;
  !len - off

let count_applies n =
  Ppdm_obs.Metrics.add "randomizer.apply" n;
  Ppdm_obs.Metrics.add "randomizer.cache.hit" n

(* One call counts itself, its size's lookup as a hit or a miss; an
   oversize transaction is left for [apply_into] to reject unresolved. *)
let apply t rng tx =
  Ppdm_obs.Metrics.incr "randomizer.apply";
  let m = Itemset.cardinal tx in
  if m <= t.universe then ignore (resolved_cached t m);
  let buf = scratch t.universe in
  let len = apply_into t rng tx buf ~off:0 in
  Itemset.of_sorted_array_unchecked (Array.sub buf 0 len)
