open Timeline


(* A fixed-capacity ring per domain: [start] indexes the oldest event,
   [len] how many are live.  Overwriting the oldest slot on overflow keeps
   recording O(1) and allocation-bounded no matter how long tracing stays
   on; the drop is counted, never silent. *)
type ring = {
  r_domain : int;
  buf : event array;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
  mutable seq : int;
}

let dummy_event =
  { phase = Instant; name = ""; cat = ""; ts_ns = 0; domain = 0; seq = 0 }

let capacity = 1 lsl 16

let set_enabled = Metrics.set_trace_enabled
let enabled = Metrics.trace_enabled

let registry_lock = Mutex.create ()
let registry : ring list ref = ref []

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          r_domain = (Domain.self () :> int);
          buf = Array.make capacity dummy_event;
          start = 0;
          len = 0;
          dropped = 0;
          seq = 0;
        }
      in
      Mutex.lock registry_lock;
      registry := r :: !registry;
      Mutex.unlock registry_lock;
      r)

let rings () =
  Mutex.lock registry_lock;
  let rs = !registry in
  Mutex.unlock registry_lock;
  rs

let reset () =
  List.iter
    (fun r ->
      Array.fill r.buf 0 capacity dummy_event;
      r.start <- 0;
      r.len <- 0;
      r.dropped <- 0;
      r.seq <- 0)
    (rings ())

let dropped () = List.fold_left (fun acc r -> acc + r.dropped) 0 (rings ())

let record phase ~name ~cat =
  if enabled () then begin
    let r = Domain.DLS.get ring_key in
    let ev =
      { phase; name; cat; ts_ns = Metrics.now_ns (); domain = r.r_domain;
        seq = r.seq }
    in
    r.seq <- r.seq + 1;
    let cap = Array.length r.buf in
    if r.len < cap then begin
      r.buf.((r.start + r.len) mod cap) <- ev;
      r.len <- r.len + 1
    end
    else begin
      (* Full: the new event replaces the oldest.  Metrics carries the
         drop too (when it is on), so a --stats report flags a truncated
         timeline even if nobody inspects the trace file. *)
      r.buf.(r.start) <- ev;
      r.start <- (r.start + 1) mod cap;
      r.dropped <- r.dropped + 1;
      Metrics.incr "trace.dropped"
    end
  end

let begin_ ~name ~cat = record Begin ~name ~cat
let end_ ~name ~cat = record End ~name ~cat
let instant ~name ~cat = record Instant ~name ~cat

let with_ ~name ~cat f =
  if not (enabled ()) then f ()
  else begin
    begin_ ~name ~cat;
    Fun.protect ~finally:(fun () -> end_ ~name ~cat) f
  end

(* Merged, time-sorted timeline.  Ties (same clamped wall-clock tick)
   break on (domain, seq) so the order is total and stable under the
   coarse clock; within a domain seq order always agrees with record
   order, which is what the begin/end pairing below relies on. *)
let events () =
  let of_ring r =
    let cap = Array.length r.buf in
    List.init r.len (fun i -> r.buf.((r.start + i) mod cap))
  in
  List.concat_map of_ring (rings ())
  |> List.sort (fun a b ->
         match compare a.ts_ns b.ts_ns with
         | 0 -> (
             match compare a.domain b.domain with
             | 0 -> compare a.seq b.seq
             | c -> c)
         | c -> c)

let write_file path =
  let evs = events () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".folded" then
        output_string oc (Timeline.to_folded evs)
      else begin
        output_string oc
          (Json.to_string
             (Timeline.to_chrome_json ~dropped:(dropped ()) evs));
        output_char oc '\n'
      end)
