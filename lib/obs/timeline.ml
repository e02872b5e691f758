type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  cat : string;
  ts_ns : int;
  domain : int;
  seq : int;
}

(* ------------------------------------------------- Chrome trace export *)

(* The trace-event format: a JSON array of {ph, ts, pid, tid, name, cat}
   objects, ts in microseconds.  Loadable by chrome://tracing, Perfetto,
   and catapult tooling.  One synthetic counter event reports drops. *)
let to_chrome_json ~dropped evs =
  let us_of_ns ns = float_of_int ns /. 1e3 in
  let base =
    List.map
      (fun ev ->
        let ph =
          match ev.phase with Begin -> "B" | End -> "E" | Instant -> "i"
        in
        let fields =
          [
            ("name", Json.String ev.name);
            ("cat", Json.String ev.cat);
            ("ph", Json.String ph);
            ("ts", Json.Float (us_of_ns ev.ts_ns));
            ("pid", Json.Int 1);
            ("tid", Json.Int ev.domain);
          ]
        in
        (* Instants carry thread scope so viewers draw them as marks. *)
        let fields =
          if ev.phase = Instant then fields @ [ ("s", Json.String "t") ]
          else fields
        in
        Json.Obj fields)
      evs
  in
  let tail =
    if dropped = 0 then []
    else
      [
        Json.Obj
          [
            ("name", Json.String "trace.dropped");
            ("cat", Json.String "trace");
            ("ph", Json.String "C");
            ("ts",
             Json.Float
               (match List.rev evs with
               | last :: _ -> us_of_ns last.ts_ns
               | [] -> 0.));
            ("pid", Json.Int 1);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("dropped", Json.Int dropped) ]);
          ];
      ]
  in
  Json.List (base @ tail)

(* ------------------------------------------------- folded-stack export *)

(* One frame of the reconstruction: name, begin timestamp, and the time
   already attributed to children (subtracted to get self time). *)
type frame = { f_name : string; f_ts : int; mutable f_child_ns : int }

(* Fold each domain's events (in record order) into "a;b;c self_ns"
   lines, flamegraph.pl-compatible.  Durations clamp at 0 — the wall
   clock can step backwards (see Metrics.now_ns).  Unpaired events are
   tolerated, they are expected after ring overflow: an End with no
   matching open frame is skipped; a Begin still open when the events run
   out closes at the last timestamp seen on its domain. *)
let to_folded evs =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let add_total path ns =
    Hashtbl.replace totals path
      (ns + Option.value ~default:0 (Hashtbl.find_opt totals path))
  in
  let by_domain : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt by_domain ev.domain with
      | Some l -> l := ev :: !l
      | None -> Hashtbl.replace by_domain ev.domain (ref [ ev ]))
    evs;
  let close stack ts =
    match stack with
    | [] -> []
    | frame :: rest ->
        let dur = max 0 (ts - frame.f_ts) in
        let self = max 0 (dur - frame.f_child_ns) in
        let path =
          String.concat ";"
            (List.rev_map (fun f -> f.f_name) (frame :: rest))
        in
        add_total path self;
        (match rest with
        | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + dur
        | [] -> ());
        rest
  in
  let domains =
    Hashtbl.fold (fun d l acc -> (d, List.rev !l) :: acc) by_domain []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun ((_, evs) : int * event list) ->
      let evs = List.sort (fun (a : event) b -> compare a.seq b.seq) evs in
      let last_ts =
        List.fold_left (fun acc ev -> max acc ev.ts_ns) 0 evs
      in
      let stack =
        List.fold_left
          (fun stack ev ->
            match ev.phase with
            | Begin -> { f_name = ev.name; f_ts = ev.ts_ns; f_child_ns = 0 } :: stack
            | End -> (
                match stack with
                | top :: _ when top.f_name = ev.name -> close stack ev.ts_ns
                | _ -> stack (* orphan End: its Begin was dropped *))
            | Instant -> stack)
          [] evs
      in
      (* close frames left open (their End dropped, or tracing stopped
         mid-span) at the domain's last timestamp *)
      let rec drain stack =
        match stack with [] -> () | _ -> drain (close stack last_ts)
      in
      drain stack)
    domains;
  let lines =
    Hashtbl.fold (fun path ns acc -> (path, ns) :: acc) totals []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  String.concat ""
    (List.map (fun (path, ns) -> Printf.sprintf "%s %d\n" path ns) lines)
