(* Spans of a traced run, kept in memory and written out at the end as
   Chrome trace events.  A span records its name, start, end, the span
   open on the same domain when it began (its parent), and an optional
   tag such as a probe or rep id. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  lane : int;  (** recording domain *)
  t0 : float;
  t1 : float;
  tag : string;
}

let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0
let open_spans = Domain.DLS.new_key (fun () -> [])

let reset () = Mutex.protect lock (fun () -> recorded := [])

let span ?(tag = "") name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_spans in
  let parent = match stack with p :: _ -> Some p | [] -> None in
  Domain.DLS.set open_spans (id :: stack);
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set open_spans stack;
      let s =
        { id; name; parent; lane = (Domain.self () :> int); t0; t1; tag }
      in
      Mutex.protect lock (fun () -> recorded := s :: !recorded))

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Total seconds spent in spans called [name]. *)
let seconds name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. (all ())

let find name = List.find (fun s -> s.name = name) (all ())

(* The share of the root span [name] that none of its direct children
   covers: time the trace cannot attribute to any layer. *)
let dark_share name =
  let root = find name in
  let covered =
    List.fold_left
      (fun acc s ->
        if s.parent = Some root.id then acc +. (s.t1 -. s.t0) else acc)
      0. (all ())
  in
  1. -. (covered /. (root.t1 -. root.t0))

let write_chrome path =
  let module J = Ppdm_obs.Json in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String "e2e");
        ("ph", J.String "X");
        ("ts", J.Float (s.t0 *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.lane);
        ( "args",
          J.Obj
            ([ ("id", J.Int s.id) ]
            @ (match s.parent with Some p -> [ ("parent", J.Int p) ] | None -> [])
            @ if s.tag = "" then [] else [ ("tag", J.String s.tag) ]) );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (J.List (List.map event (all ()))));
      output_char oc '\n')
