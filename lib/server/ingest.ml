type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  idle : Condition.t;
  mutable in_flight : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ingest.create: capacity < 1";
  {
    capacity;
    q = Queue.create ();
    lock = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    idle = Condition.create ();
    in_flight = 0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push t x =
  locked t (fun () ->
      while Queue.length t.q >= t.capacity && not t.closed do
        Condition.wait t.not_full t.lock
      done;
      if t.closed then false
      else begin
        Queue.add x t.q;
        Condition.signal t.not_empty;
        true
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      match Queue.take_opt t.q with
      | Some x ->
          t.in_flight <- t.in_flight + 1;
          Condition.signal t.not_full;
          Some x
      | None -> None)

let pop_batch t ~max =
  if max < 1 then invalid_arg "Ingest.pop_batch: max < 1";
  let acc = ref [] and count = ref 0 in
  locked t (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      while !count < max && not (Queue.is_empty t.q) do
        acc := Queue.take t.q :: !acc;
        incr count
      done;
      if !count > 0 then begin
        t.in_flight <- t.in_flight + 1;
        Condition.broadcast t.not_full
      end);
  if !count = 0 then [||] else Array.of_list (List.rev !acc)

let done_with t =
  locked t (fun () ->
      if t.in_flight > 0 then t.in_flight <- t.in_flight - 1;
      if t.in_flight = 0 && Queue.is_empty t.q then Condition.broadcast t.idle)

let wait_idle t =
  locked t (fun () ->
      while not (Queue.is_empty t.q && t.in_flight = 0) do
        Condition.wait t.idle t.lock
      done)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)

let depth t = locked t (fun () -> Queue.length t.q)
