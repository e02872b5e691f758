open Ppdm_data
open Ppdm

type t = {
  (* (original_size, randomized_itemset, submitted_ns); the timestamp is
     0 when metrics are off, so the disabled path never reads a clock. *)
  queue : (int * Itemset.t * int) Ingest.t;
  accs : Stream.t list;
  acc_lock : Mutex.t;
  mutable folded : int; (* under acc_lock *)
}

let create ~scheme ~itemsets ~capacity =
  if itemsets = [] then invalid_arg "Shard.create: no tracked itemsets";
  {
    queue = Ingest.create ~capacity;
    accs = List.map (fun itemset -> Stream.create ~scheme ~itemset) itemsets;
    acc_lock = Mutex.create ();
    folded = 0;
  }

let submit t report = Ingest.push t.queue report

let fold_batch t batch =
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (fun () ->
      Array.iter
        (fun (size, y, _) ->
          List.iter (fun acc -> Stream.observe acc ~size y) t.accs)
        batch;
      t.folded <- t.folded + Array.length batch)

let fold_loop t ~batch =
  let instrument = Ppdm_obs.Metrics.any_enabled () in
  let rec go () =
    match Ingest.pop_batch t.queue ~max:batch with
    | [||] -> ()
    | b ->
        if instrument then begin
          Ppdm_obs.Metrics.observe "server.batch.size" (Array.length b);
          Ppdm_obs.Metrics.gauge "server.queue.depth"
            (float_of_int (Ingest.depth t.queue));
          let now = Ppdm_obs.Metrics.now_ns () in
          Ppdm_obs.Window.mark ~now "server.ingest" (Array.length b);
          Array.iter
            (fun (_, _, ts) ->
              if ts > 0 then
                Ppdm_obs.Window.observe ~now "server.fold.latency_ns"
                  (now - ts))
            b;
          Ppdm_obs.Trace.with_ ~name:"server.fold" ~cat:"server" (fun () ->
              fold_batch t b)
        end
        else fold_batch t b;
        Ingest.done_with t.queue;
        go ()
  in
  go ()

let close t = Ingest.close t.queue
let quiesce t = Ingest.wait_idle t.queue

let snapshot t =
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (* [Stream.merge] of a single accumulator is a deep copy: a fresh
       accumulator holding the same summed statistic. *)
    (fun () -> List.map (fun acc -> Stream.merge [ acc ]) t.accs)

let folded t =
  Mutex.lock t.acc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.acc_lock)
    (fun () -> t.folded)

let depth t = Ingest.depth t.queue
