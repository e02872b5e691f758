(* The four xoshiro256++ words live in one 32-byte buffer, read and written
   with the unboxed native-endian int64 primitives of [Bytes].  A record of
   [mutable int64] fields would box a fresh Int64 on every store, i.e.
   several allocations per draw on the randomizer's hot path.  Every
   buffer comes from [of_seed64], so word offsets 0..3 are always in
   range and the accessors skip the bounds check (with it, a draw costs
   about 4x as long). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get t i = get64 t (i * 8)
let[@inline] set t i v = set64 t (i * 8) v

let default_seed = 0x1E3779B97F4A7C15

(* SplitMix64: used only to expand a seed into the xoshiro state, and to
   derive children.  Its guarantee of distinct, well-mixed outputs for
   distinct inputs is what makes [derive] streams decorrelated. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64_next state)
  done;
  t

let create ?(seed = default_seed) () = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let derive t ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Hash the state snapshot together with the index through SplitMix64,
     leaving [t] untouched: the same (state, index) pair always yields the
     same child, and distinct indices yield decorrelated children.  This
     is the fan-out primitive of the parallel runtime — every chunk of a
     sharded computation derives its own stream by chunk index, so results
     do not depend on how chunks are scheduled across domains. *)
  let state = ref (get t 0) in
  let mix x = state := Int64.logxor x (splitmix64_next state) in
  mix (get t 1);
  mix (get t 2);
  mix (get t 3);
  mix (Int64.of_int index);
  of_seed64 (splitmix64_next state)

(* Non-negative 62-bit integer, convenient for OCaml's int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over 62-bit outputs: exact uniformity. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (((max62 mod bound) + 1) mod bound) in
  let v = ref (bits62 t) in
  while !v > limit do
    v := bits62 t
  done;
  !v mod bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

(* The 53 high bits of a 64-bit draw. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let[@inline] float t = float_of_int (bits53 t) *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L
