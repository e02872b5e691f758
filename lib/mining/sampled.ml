(* Deterministic word-window sampling over the vertical engine.

   The sample is a cluster sample of bitmap word windows: the tid range
   is cut into windows of [window_words] 62-bit words, a seeded partial
   Fisher-Yates shuffle picks round(F * windows) of them, and adjacent
   selections are merged into runs so counting touches each selected
   region with one [Vertical.count_into] window.  Everything downstream
   of the (fraction, seed, geometry) triple is deterministic, so the
   same plan is recomputed identically by every process and every
   domain — the parallel driver cuts the runs into the same grid cells
   it cuts the full word range into for an exact count. *)

let default_window_words = 4

type plan = {
  population : int;
  sample : int;
  fraction : float;
  seed : int;
  runs : (int * int) array;
}

let bits = Ppdm_data.Bitset.bits_per_word

(* Tids covered by words [lo, hi): the last word of the database is
   partial unless 62 divides the transaction count. *)
let tids_in_window ~n ~lo ~hi = min (hi * bits) n - (lo * bits)

let merge_adjacent sorted ~window_words ~word_count =
  let runs = ref [] in
  let cur = ref None in
  Array.iter
    (fun w ->
      let lo = w * window_words in
      let hi = min word_count ((w + 1) * window_words) in
      match !cur with
      | Some (clo, chi) when chi = lo -> cur := Some (clo, hi)
      | Some r ->
          runs := r :: !runs;
          cur := Some (lo, hi)
      | None -> cur := Some (lo, hi))
    sorted;
  (match !cur with Some r -> runs := r :: !runs | None -> ());
  Array.of_list (List.rev !runs)

(* A seeded uniform draw of round(F * n) of [0, n) (at least one),
   ascending; [None] when that is all of them.  Partial Fisher-Yates: the
   first [m] slots are a uniform without-replacement draw. *)
let choose ~n ~fraction ~seed =
  let m = max 1 (min n (int_of_float (Float.round (fraction *. float_of_int n)))) in
  if m >= n then None
  else begin
    let idx = Array.init n Fun.id in
    let rng = Ppdm_prng.Rng.create ~seed () in
    for i = 0 to m - 1 do
      let j = i + Ppdm_prng.Rng.int rng (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    let chosen = Array.sub idx 0 m in
    Array.sort Int.compare chosen;
    Some chosen
  end

let plan ?(window_words = default_window_words) ~n ~word_count ~fraction ~seed
    () =
  if not (fraction > 0. && fraction <= 1.) then
    invalid_arg "Sampled.plan: fraction out of (0,1]";
  if window_words <= 0 then
    invalid_arg "Sampled.plan: window_words must be positive";
  if n < 0 || word_count < 0 then
    invalid_arg "Sampled.plan: negative geometry";
  if word_count * bits < n then
    invalid_arg "Sampled.plan: word_count too small for n";
  if word_count = 0 then
    { population = n; sample = n; fraction; seed; runs = [||] }
  else begin
    let windows = (word_count + window_words - 1) / window_words in
    let runs =
      match choose ~n:windows ~fraction ~seed with
      | None -> [| (0, word_count) |]
      | Some chosen -> merge_adjacent chosen ~window_words ~word_count
    in
    let sample =
      Array.fold_left
        (fun acc (lo, hi) -> acc + tids_in_window ~n ~lo ~hi)
        0 runs
    in
    Ppdm_obs.Metrics.incr "sampled.plans";
    Ppdm_obs.Metrics.add "sampled.words.selected"
      (Array.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 runs);
    { population = n; sample; fraction; seed; runs }
  end

let is_exhaustive plan = plan.sample = plan.population

(* Scale a raw sample count to its full-database equivalent with
   round-half-up integer arithmetic: (2 c N + n) / (2 n).  Exactly [c]
   when the plan is exhaustive, so sampled:1.0 output is byte-identical
   to the exact engine.  Magnitudes stay far below 2^62: c <= n <= N. *)
let scale_count plan c =
  if plan.sample = plan.population || c = 0 then c
  else ((2 * c * plan.population) + plan.sample) / (2 * plan.sample)

let scale_counts plan counts =
  if is_exhaustive plan then counts else Array.map (scale_count plan) counts

let raw_counts ?scratch vt plan prepared =
  let totals = Array.make (Vertical.prepared_length prepared) 0 in
  Array.iter
    (fun (lo, hi) ->
      let part = Vertical.count_into ?scratch vt ~word_lo:lo ~word_hi:hi prepared in
      Array.iteri (fun i c -> totals.(i) <- totals.(i) + c) part)
    plan.runs;
  totals

let support_counts ?scratch vt plan candidates =
  if Vertical.length vt <> plan.population then
    invalid_arg "Sampled.support_counts: plan built for another database";
  let prepared = Vertical.prepare candidates in
  if Vertical.prepared_length prepared = 0 then []
  else
    Vertical.assemble prepared
      (scale_counts plan (raw_counts ?scratch vt plan prepared))

(* Rows rather than word windows: tagged reports have no tid geometry,
   so [recover] samples them directly, keeping input order. *)
let sample_rows data ~fraction ~seed =
  match choose ~n:(Array.length data) ~fraction ~seed with
  | None -> data
  | Some chosen -> Array.map (fun i -> data.(i)) chosen
