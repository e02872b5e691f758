(* Values above 2^62 ns (~146 years) or 2^62 counts do not occur; plain
   int arithmetic throughout. *)

let n_buckets = 63

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int; (* exact observed extrema (after the 0 clamp) *)
  mutable h_max : int;
  h_buckets : int array; (* n_buckets log2 buckets *)
}

module Sink_impl = struct
  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    hists : (string, hist) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 8;
      hists = Hashtbl.create 8;
    }

  let clear t =
    Hashtbl.reset t.counters;
    Hashtbl.reset t.gauges;
    Hashtbl.reset t.hists

  let add t name n =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counters name (ref n)

  let gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

  (* Bucket 0 holds the value 0; bucket i >= 1 covers 2^(i-1) .. 2^i - 1. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 0 do
        incr i;
        v := !v lsr 1
      done;
      min !i (n_buckets - 1)
    end

  let bucket_lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)
  let bucket_upper_edge i = if i = 0 then 1 else 1 lsl i

  let observe t name v =
    let v = max 0 v in
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h =
            {
              h_count = 0;
              h_sum = 0;
              h_min = max_int;
              h_max = 0;
              h_buckets = Array.make n_buckets 0;
            }
          in
          Hashtbl.replace t.hists name h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  type histogram_snapshot = {
    count : int;
    sum : int;
    min : int;
    max : int;
    buckets : (int * int) list;
  }

  (* Every merge below is commutative and associative (integer sums,
     float max), so [merge] is independent of the sink list order; the
     final sort by name fixes the output order. *)
  let merge sinks =
    let counters = Hashtbl.create 32 in
    let gauges = Hashtbl.create 8 in
    let hists = Hashtbl.create 8 in
    List.iter
      (fun s ->
        Hashtbl.iter
          (fun name r ->
            match Hashtbl.find_opt counters name with
            | Some acc -> acc := !acc + !r
            | None -> Hashtbl.replace counters name (ref !r))
          s.counters;
        Hashtbl.iter
          (fun name r ->
            match Hashtbl.find_opt gauges name with
            | Some acc -> acc := Float.max !acc !r
            | None -> Hashtbl.replace gauges name (ref !r))
          s.gauges;
        Hashtbl.iter
          (fun name h ->
            match Hashtbl.find_opt hists name with
            | Some acc ->
                acc.h_count <- acc.h_count + h.h_count;
                acc.h_sum <- acc.h_sum + h.h_sum;
                if h.h_min < acc.h_min then acc.h_min <- h.h_min;
                if h.h_max > acc.h_max then acc.h_max <- h.h_max;
                Array.iteri
                  (fun i c -> acc.h_buckets.(i) <- acc.h_buckets.(i) + c)
                  h.h_buckets
            | None ->
                Hashtbl.replace hists name
                  {
                    h_count = h.h_count;
                    h_sum = h.h_sum;
                    h_min = h.h_min;
                    h_max = h.h_max;
                    h_buckets = Array.copy h.h_buckets;
                  })
          s.hists)
      sinks;
    let sorted fold = List.sort (fun (a, _) (b, _) -> compare a b) fold in
    ( sorted (Hashtbl.fold (fun n r acc -> (n, !r) :: acc) counters []),
      sorted (Hashtbl.fold (fun n r acc -> (n, !r) :: acc) gauges []),
      sorted
        (Hashtbl.fold
           (fun n h acc ->
             let buckets = ref [] in
             for i = n_buckets - 1 downto 0 do
               if h.h_buckets.(i) > 0 then
                 buckets := (bucket_lower_bound i, h.h_buckets.(i)) :: !buckets
             done;
             ( n,
               {
                 count = h.h_count;
                 sum = h.h_sum;
                 min = (if h.h_count = 0 then 0 else h.h_min);
                 max = h.h_max;
                 buckets = !buckets;
               } )
             :: acc)
           hists []) )
end

type histogram = Sink_impl.histogram_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
}

let n_buckets = n_buckets
let bucket_of = Sink_impl.bucket_of
let bucket_lower_bound = Sink_impl.bucket_lower_bound
let bucket_upper_edge = Sink_impl.bucket_upper_edge

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}

let quantile h q =
  if h.count = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec walk seen = function
      | [] -> 0
      | [ (lo, _) ] -> Sink_impl.bucket_upper_edge (Sink_impl.bucket_of lo)
      | (lo, c) :: rest ->
          if seen + c >= rank then Sink_impl.bucket_upper_edge (Sink_impl.bucket_of lo)
          else walk (seen + c) rest
    in
    walk 0 h.buckets
  end

(* ----------------------------------------------------- global registry *)

(* One atomic word carries the metrics bit and the trace bit (owned by
   [Trace], plumbed through here so the word stays single).  Instrumented
   code that serves both layers — [Span.with_], the pool's batch wrapper —
   can then keep its disabled fast path at exactly one atomic load via
   [any_enabled]. *)
let metrics_bit = 1
let trace_bit = 2
let flags = Atomic.make 0

let rec set_bit bit b =
  let cur = Atomic.get flags in
  let next = if b then cur lor bit else cur land lnot bit in
  if not (Atomic.compare_and_set flags cur next) then set_bit bit b

let set_enabled b = set_bit metrics_bit b
let enabled () = Atomic.get flags land metrics_bit <> 0
let set_trace_enabled b = set_bit trace_bit b
let trace_enabled () = Atomic.get flags land trace_bit <> 0
let any_enabled () = Atomic.get flags <> 0

(* Shards register once per domain; the list order depends on scheduling,
   which is why Sink_impl.merge must be (and is) order-independent. *)
let registry_lock = Mutex.create ()
let registry : Sink_impl.t list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = Sink_impl.create () in
      Mutex.lock registry_lock;
      registry := s :: !registry;
      Mutex.unlock registry_lock;
      s)

let shard () = Domain.DLS.get shard_key

let reset () =
  Mutex.lock registry_lock;
  let sinks = !registry in
  Mutex.unlock registry_lock;
  List.iter Sink_impl.clear sinks

let add name n = if enabled () then Sink_impl.add (shard ()) name n
let incr name = if enabled () then Sink_impl.add (shard ()) name 1
let gauge name v = if enabled () then Sink_impl.gauge (shard ()) name v
let observe name v = if enabled () then Sink_impl.observe (shard ()) name v

(* Wall clock, not a monotonic one: the stdlib exposes nothing monotonic
   without an external package.  NTP can therefore step it backwards
   between two reads; every duration computed from [now_ns] pairs must
   clamp at 0 ([observe] already does, [Span.with_] and the trace pairing
   do so explicitly). *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let time name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () -> Sink_impl.observe (shard ()) name (now_ns () - t0))
      f
  end

let snapshot () =
  Mutex.lock registry_lock;
  let sinks = !registry in
  Mutex.unlock registry_lock;
  let counters, gauges, histograms = Sink_impl.merge sinks in
  { counters; gauges; histograms }

